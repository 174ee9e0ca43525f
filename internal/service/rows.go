package service

// Row ingestion plumbing shared by the dataset, key and federation
// services: a transport (or embedding program) feeds rows through a
// RowSource; the services chunk them into matrices.

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"ppclust/internal/codec"
	"ppclust/internal/matrix"
)

// RowSource is a stream of numeric rows: internal/codec's readers (CSV,
// NDJSON, binary) or, in an embedding program, SliceRows.
type RowSource = codec.RowReader

// SliceRows adapts an in-memory slice of rows to a RowSource — the
// embedded-use counterpart of a CSV body.
type SliceRows struct {
	Columns []string
	Rows    [][]float64
	next    int
}

// Names implements RowSource.
func (s *SliceRows) Names() []string { return s.Columns }

// ReadRows implements RowSource.
func (s *SliceRows) ReadRows(dst []float64) (int, error) {
	cols := len(s.Columns)
	n := 0
	for ; (n+1)*cols <= len(dst); n++ {
		if s.next == len(s.Rows) {
			return n, io.EOF
		}
		row := s.Rows[s.next]
		s.next++
		if len(row) != cols {
			return n, fmt.Errorf("row has %d values, want %d", len(row), cols)
		}
		copy(dst[n*cols:], row)
	}
	return n, nil
}

// frameSource is a RowSource that also hands over whole decoded frames,
// as the binary codec's reader does.
type frameSource interface {
	ReadBatch() (*matrix.Dense, []int, error)
}

// ReadAll drains a RowSource into a dense matrix, accumulating directly
// into the flat backing slice so the largest requests are held in memory
// once, not twice. A source of whole frames is read frame by frame: a
// single frame becomes the matrix as decoded, and several are copied once
// into a buffer of exactly their total size. Any other source fills whole
// rows into a buffer grown as they arrive (matrix.GrowRows).
func ReadAll(src RowSource) (*matrix.Dense, error) {
	if fs, ok := src.(frameSource); ok {
		return readFrames(fs)
	}
	cols := len(src.Names())
	if cols == 0 {
		// An empty stream, or an unreadable one: the read says which.
		if _, err := ReadRows(src, nil); err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
		return nil, Invalid(fmt.Errorf("empty dataset"))
	}
	var flat []float64
	rows := 0
	for {
		if len(flat) == rows*cols {
			// Fourfold from 256 rows: a small body costs little, a large
			// one about 4/3 of its final buffer.
			flat = matrix.GrowRows(flat, cols, max(4*rows, 256))
		}
		n, err := ReadRows(src, flat[rows*cols:])
		rows += n
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if rows == 0 {
		return nil, Invalid(fmt.Errorf("empty dataset"))
	}
	return matrix.NewDense(rows, cols, flat[:rows*cols]), nil
}

func readFrames(src frameSource) (*matrix.Dense, error) {
	var frames []*matrix.Dense
	rows := 0
	for {
		b, _, err := src.ReadBatch()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, Invalid(err)
		}
		frames = append(frames, b)
		rows += b.Rows()
	}
	switch len(frames) {
	case 0:
		return nil, Invalid(fmt.Errorf("empty dataset"))
	case 1:
		return frames[0], nil
	}
	flat := make([]float64, 0, rows*frames[0].Cols())
	for _, b := range frames {
		flat = append(flat, b.Raw()...)
	}
	return matrix.NewDense(rows, frames[0].Cols(), flat), nil
}

// ReadRows fills dst with whole rows from src (RowSource.ReadRows),
// classifying read errors other than io.EOF as invalid input.
func ReadRows(src RowSource, dst []float64) (int, error) {
	n, err := src.ReadRows(dst)
	if err != nil && !errors.Is(err, io.EOF) {
		return n, Invalid(err)
	}
	return n, err
}

// ingestBatchRows sizes the batches dataset uploads and stream
// contributions read their rows in.
const ingestBatchRows = 4096

// eachBatch reads src in batches of up to ingestBatchRows rows, every one
// into the same pooled buffer (Batches), and hands each to fn, which is
// done with it when it returns. Read errors come back classified as
// invalid input; the first error, of either kind, ends the reading.
func eachBatch(src RowSource, fn func(*matrix.Dense) error) error {
	batches := NewBatches(src, ingestBatchRows)
	defer batches.Release()
	for {
		batch, err := batches.Next()
		if batch != nil {
			if ferr := fn(batch); ferr != nil {
				return ferr
			}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Batches reads a RowSource in batches of up to a fixed number of rows,
// every one into the same buffer, for callers that transform each batch
// in place and are done with it before asking for the next. The buffer
// comes from a pool shared by all requests and goes back on Release. A
// batch covers only rows this reader has read, never a pooled buffer's
// earlier contents. A pooled buffer holds as many whole rows as fit; past
// those, and without one, the buffer grows toward a full batch as the
// first one's rows arrive (matrix.GrowRows), so a header declaring
// thousands of columns reserves only what its rows have sent.
type Batches struct {
	src   RowSource
	limit int
	buf   []float64
}

// maxPooledBatch is the largest buffer, in values, Release returns to the
// pool: 4 MiB, eight default batches of 16 columns. Wider requests
// allocate their own.
const maxPooledBatch = 4 << 20 / 8

// batchPool holds *[]float64 buffers of zero length for NewBatches.
var batchPool sync.Pool

// NewBatches returns a batch reader of src with up to limit rows per
// batch. Call Release once done with the last batch.
func NewBatches(src RowSource, limit int) *Batches {
	b := &Batches{src: src, limit: limit}
	if p, ok := batchPool.Get().(*[]float64); ok {
		b.buf = *p
	}
	return b
}

// Release gives the buffer back to the pool; no batch Next returned may
// be used afterwards.
func (b *Batches) Release() {
	if c := cap(b.buf); c > 0 && c <= maxPooledBatch {
		buf := b.buf[:0]
		batchPool.Put(&buf)
	}
	b.buf = nil
}

// Next reads the next batch and returns it as a matrix over the shared
// buffer, valid until the following call. Every batch but the last holds
// exactly limit rows. The last comes with io.EOF, and is nil when the
// stream ended on a batch boundary. A read error, classified as invalid
// input, discards the partial batch.
func (b *Batches) Next() (*matrix.Dense, error) {
	cols := len(b.src.Names())
	if cols == 0 {
		// No header: an empty stream, or an unreadable one.
		if _, err := ReadRows(b.src, nil); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	n := 0
	for {
		if len(b.buf) == n*cols {
			if n == b.limit {
				return matrix.NewDense(n, cols, b.buf), nil
			}
			if rows := min(b.limit, cap(b.buf)/cols); rows > n {
				b.buf = b.buf[:rows*cols]
			} else {
				b.buf = matrix.GrowRows(b.buf, cols, b.limit)
			}
		}
		k, err := ReadRows(b.src, b.buf[n*cols:])
		n += k
		switch {
		case err == nil:
		case !errors.Is(err, io.EOF):
			return nil, err
		case n == 0:
			return nil, io.EOF
		default:
			return matrix.NewDense(n, cols, b.buf[:n*cols]), io.EOF
		}
	}
}
