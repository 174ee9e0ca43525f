package service

// Row ingestion plumbing shared by the dataset, key and federation
// services: a transport (or embedding program) feeds rows through a
// RowSource; the services chunk them into matrices.

import (
	"errors"
	"fmt"
	"io"

	"ppclust/internal/matrix"
)

// RowSource is a stream of numeric rows. cmd/ppclustd's CSV, NDJSON and
// binary readers satisfy it; an embedding program can hand the services
// an in-memory implementation (see SliceRows).
type RowSource interface {
	// Names returns the column names, reading the stream's header (or
	// first row) if needed; nil when the stream is empty or unreadable,
	// which the next read reports.
	Names() []string
	// Read returns the next row in memory that stays valid after later
	// reads, or io.EOF at the end of the stream.
	Read() ([]float64, error)
	// ReadRows fills dst with whole rows of len(Names()) values and
	// returns how many it filled; those rows are valid even alongside an
	// error. It returns short only with io.EOF or an error.
	ReadRows(dst []float64) (int, error)
}

// SliceRows adapts an in-memory slice of rows to a RowSource — the
// embedded-use counterpart of a CSV body.
type SliceRows struct {
	Columns []string
	Rows    [][]float64
	next    int
}

// Names implements RowSource.
func (s *SliceRows) Names() []string { return s.Columns }

// Read implements RowSource.
func (s *SliceRows) Read() ([]float64, error) {
	if s.next >= len(s.Rows) {
		return nil, io.EOF
	}
	row := s.Rows[s.next]
	s.next++
	return row, nil
}

// ReadRows implements RowSource.
func (s *SliceRows) ReadRows(dst []float64) (int, error) {
	cols := len(s.Columns)
	n := 0
	for ; (n+1)*cols <= len(dst); n++ {
		row, err := s.Read()
		if err != nil {
			return n, err
		}
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
// into a buffer of exactly their total size.
func ReadAll(src RowSource) (*matrix.Dense, error) {
	if fs, ok := src.(frameSource); ok {
		return readFrames(fs)
	}
	var flat []float64
	var cols, rows int
	for {
		row, err := src.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, Invalid(err)
		}
		if rows == 0 {
			cols = len(row)
		}
		flat = append(flat, row...)
		rows++
	}
	if rows == 0 {
		return nil, Invalid(fmt.Errorf("empty dataset"))
	}
	return matrix.NewDense(rows, cols, flat), nil
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

// Batches reads a RowSource in batches of up to a fixed number of rows,
// every one into the same buffer, for callers that transform each batch
// in place and are done with it before asking for the next. The buffer
// grows toward a full batch as the first one's rows arrive
// (matrix.GrowRows), so a header declaring thousands of columns reserves
// only what its rows have sent.
type Batches struct {
	src   RowSource
	limit int
	buf   []float64
}

// NewBatches returns a batch reader of src with up to limit rows per
// batch.
func NewBatches(src RowSource, limit int) *Batches {
	return &Batches{src: src, limit: limit}
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
			b.buf = matrix.GrowRows(b.buf, cols, b.limit)
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
