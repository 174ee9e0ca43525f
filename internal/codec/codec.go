// Package codec implements the binary row-batch wire format
// application/x-ppclust-rows: little-endian float64 batches framed so a
// dataset can flow from the datastore's binary segment files through the
// block cache to the socket (and back) without a float↔text conversion.
//
// Stream layout (all integers little-endian):
//
//	header      "PPRW" | version u8 (=1) | flags u8 | cols u32
//	            cols × (name-len u16 | name bytes)
//	batch frame 'B' | rows u32 | rows×cols float64
//	            [labeled flag set: rows × label i64]
//	end frame   'E' | total-rows u64
//
// The end frame is load-bearing: a stream that stops without one —
// mid-frame or between frames — is reported as ErrTruncated, which is how
// a receiver distinguishes a completed transfer from a producer that
// died (the daemon aborts a failed response mid-stream for exactly this
// reason). Flag bit 0 marks a labeled stream (ring replication ships
// cluster labels alongside rows); plain API streams leave it clear.
//
// On little-endian hosts batch payloads are written and read through an
// unsafe []float64↔[]byte reinterpretation — one memmove per batch, no
// per-value conversion; big-endian hosts fall back to element-wise
// encoding so the wire format stays portable.
//
// Reader.ReadRows is the batch contract: it fills a caller's buffer with
// whole rows across frame boundaries, reading each payload straight from
// the buffered wire, and returns short only with io.EOF or an error — the
// daemon's stream pump reads every batch into one per-request buffer this
// way. Read and ReadBatch decode into fresh memory instead, and grow a
// frame's slice as its payload arrives (at most 512 KiB first, then
// fourfold), so a header declaring a 256 MiB frame costs what the sender
// actually sent.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unsafe"

	"ppclust/internal/matrix"
)

// ContentType is the MIME type of the framed binary row stream.
const ContentType = "application/x-ppclust-rows"

// FormatName is the wire-format identifier used in `format=` query
// parameters alongside "csv" and "ndjson".
const FormatName = "binary"

const (
	version     = 1
	flagLabeled = 1 << 0

	frameBatch = 'B'
	frameEnd   = 'E'

	// defaultBatchRows is the row-buffering granularity of Writer.WriteRow.
	defaultBatchRows = 4096

	// maxCols, maxBatchRows and maxBatchSize bound what one header may
	// declare. What the decoder allocates is bounded by the bytes that
	// arrive (matrix.GrowRows), never by these declarations.
	maxCols      = 1 << 16
	maxNameLen   = 1 << 12
	maxBatchRows = 1 << 22
	maxBatchSize = 256 << 20 // bytes of float payload per frame
)

// ErrTruncated reports a stream that ended without a complete end frame:
// the producer died (or aborted) mid-transfer.
var ErrTruncated = errors.New("ppclust-rows: truncated stream (no end frame)")

var magic = [4]byte{'P', 'P', 'R', 'W'}

var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f64bytes reinterprets a float64 slice as its in-memory bytes.
func f64bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// Writer emits a framed binary row stream. WriteHeader must be called
// first; Close writes the end frame (without it the stream reads as
// truncated, which is the desired signal for an aborted transfer).
type Writer struct {
	w       *bufio.Writer
	cols    int
	labeled bool
	rows    uint64
	pending []float64 // row-buffered values awaiting a batch frame
	scratch [10]byte
	started bool
	closed  bool
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// WriteHeader writes the stream header. Column names may be empty (they
// are then synthesized as c0..c{n-1} by the reader's Names).
func (w *Writer) WriteHeader(names []string, labeled bool) error {
	if w.started {
		return errors.New("ppclust-rows: header already written")
	}
	if len(names) == 0 {
		return errors.New("ppclust-rows: need at least one column")
	}
	if len(names) > maxCols {
		return fmt.Errorf("ppclust-rows: %d columns exceeds the %d limit", len(names), maxCols)
	}
	w.started = true
	w.cols = len(names)
	w.labeled = labeled
	if _, err := w.w.Write(magic[:]); err != nil {
		return err
	}
	flags := byte(0)
	if labeled {
		flags |= flagLabeled
	}
	if _, err := w.w.Write([]byte{version, flags}); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(w.scratch[:4], uint32(len(names)))
	if _, err := w.w.Write(w.scratch[:4]); err != nil {
		return err
	}
	for _, name := range names {
		if len(name) > maxNameLen {
			return fmt.Errorf("ppclust-rows: column name of %d bytes exceeds the %d limit", len(name), maxNameLen)
		}
		binary.LittleEndian.PutUint16(w.scratch[:2], uint16(len(name)))
		if _, err := w.w.Write(w.scratch[:2]); err != nil {
			return err
		}
		if _, err := w.w.WriteString(name); err != nil {
			return err
		}
	}
	return nil
}

// writeFloats writes vals as little-endian float64s, zero-copy on LE
// hosts.
func (w *Writer) writeFloats(vals []float64) error {
	if hostLittle {
		_, err := w.w.Write(f64bytes(vals))
		return err
	}
	for _, v := range vals {
		binary.LittleEndian.PutUint64(w.scratch[:8], math.Float64bits(v))
		if _, err := w.w.Write(w.scratch[:8]); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) batchFrame(vals []float64, labels []int) error {
	rows := len(vals) / w.cols
	w.scratch[0] = frameBatch
	binary.LittleEndian.PutUint32(w.scratch[1:5], uint32(rows))
	if _, err := w.w.Write(w.scratch[:5]); err != nil {
		return err
	}
	if err := w.writeFloats(vals); err != nil {
		return err
	}
	if w.labeled {
		if len(labels) != rows {
			return fmt.Errorf("ppclust-rows: %d labels for %d rows", len(labels), rows)
		}
		for _, l := range labels {
			binary.LittleEndian.PutUint64(w.scratch[:8], uint64(int64(l)))
			if _, err := w.w.Write(w.scratch[:8]); err != nil {
				return err
			}
		}
	}
	w.rows += uint64(rows)
	return nil
}

// WriteBatch writes one batch frame straight from a matrix block —
// the zero-copy path from the datastore's block cache to the socket.
// The matrix's column count must equal the header's.
func (w *Writer) WriteBatch(b *matrix.Dense, labels []int) error {
	if !w.started {
		return errors.New("ppclust-rows: WriteBatch before WriteHeader")
	}
	if b.Cols() != w.cols {
		return fmt.Errorf("ppclust-rows: batch has %d columns, header has %d", b.Cols(), w.cols)
	}
	if b.Rows() == 0 {
		return nil
	}
	if err := w.flushPending(); err != nil {
		return err
	}
	return w.batchFrame(b.Raw(), labels)
}

// WriteRow buffers one row, emitting a batch frame per defaultBatchRows.
func (w *Writer) WriteRow(row []float64) error {
	if !w.started {
		return errors.New("ppclust-rows: WriteRow before WriteHeader")
	}
	if len(row) != w.cols {
		return fmt.Errorf("ppclust-rows: row has %d values, header has %d", len(row), w.cols)
	}
	if w.labeled {
		return errors.New("ppclust-rows: WriteRow on a labeled stream")
	}
	w.pending = append(w.pending, row...)
	if len(w.pending) >= defaultBatchRows*w.cols {
		return w.flushPending()
	}
	return nil
}

func (w *Writer) flushPending() error {
	if len(w.pending) == 0 {
		return nil
	}
	err := w.batchFrame(w.pending, nil)
	w.pending = w.pending[:0]
	return err
}

// Flush emits any buffered rows as a batch frame and flushes the
// underlying writer. The stream stays open for more batches.
func (w *Writer) Flush() error {
	if err := w.flushPending(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Close writes the end frame and flushes. It does not close the
// underlying writer. A stream abandoned without Close reads as
// ErrTruncated on the other side — intentional for abort paths.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if !w.started {
		return errors.New("ppclust-rows: Close before WriteHeader")
	}
	if err := w.flushPending(); err != nil {
		return err
	}
	w.closed = true
	w.scratch[0] = frameEnd
	binary.LittleEndian.PutUint64(w.scratch[1:9], w.rows)
	if _, err := w.w.Write(w.scratch[:9]); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader decodes a framed binary row stream. Names reads the header;
// rows then come through one of two surfaces, each ending in io.EOF only
// after a *complete* stream (header, zero or more batches, end frame):
//
//   - ReadRows(dst) is the batch contract the daemon's row readers share:
//     it fills the caller's buffer with whole rows, straight from the
//     buffered wire, across frame boundaries, and returns short only
//     with io.EOF or an error.
//   - Read, ReadLabeled and ReadBatch decode into fresh memory that stays
//     valid after later calls. A frame's slice grows as its payload
//     arrives (matrix.GrowRows), so what a stream makes the reader
//     allocate tracks the bytes it has sent, not the sizes its headers
//     declare. A 4 096×16 frame (512 KiB) decodes in one allocation.
//
// Both surfaces yield every whole row that arrived before a stream broke
// off, then the error.
type Reader struct {
	r       *bufio.Reader
	names   []string
	labeled bool
	cols    int
	started bool
	done    bool
	err     error

	left    int       // rows of the open frame whose values are still on the wire
	batch   []float64 // rows decoded for Read and ReadBatch, not yet handed out
	labels  []int     // their labels, on labeled streams
	total   uint64
	scratch [9]byte
}

// NewReader returns a Reader on r. The header is read lazily on first use.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// truncated converts unexpected stream ends into ErrTruncated.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrTruncated
	}
	return err
}

func (r *Reader) header() error {
	if r.started {
		return r.err
	}
	r.started = true
	var head [10]byte
	if _, err := io.ReadFull(r.r, head[:]); err != nil {
		return r.fail(truncated(err))
	}
	if [4]byte(head[:4]) != magic {
		return r.fail(fmt.Errorf("ppclust-rows: bad magic %q", head[:4]))
	}
	if head[4] != version {
		return r.fail(fmt.Errorf("ppclust-rows: unsupported version %d", head[4]))
	}
	flags := head[5]
	r.labeled = flags&flagLabeled != 0
	cols := int(binary.LittleEndian.Uint32(head[6:10]))
	if cols == 0 || cols > maxCols {
		return r.fail(fmt.Errorf("ppclust-rows: column count %d out of range", cols))
	}
	r.cols = cols
	r.names = make([]string, cols)
	var buf []byte
	for j := range r.names {
		if _, err := io.ReadFull(r.r, r.scratch[:2]); err != nil {
			return r.fail(truncated(err))
		}
		nameLen := int(binary.LittleEndian.Uint16(r.scratch[:2]))
		if nameLen > maxNameLen {
			return r.fail(fmt.Errorf("ppclust-rows: column name of %d bytes exceeds the %d limit", nameLen, maxNameLen))
		}
		if nameLen == 0 {
			r.names[j] = "c" + strconv.Itoa(j)
			continue
		}
		buf = slices.Grow(buf[:0], nameLen)[:nameLen]
		if _, err := io.ReadFull(r.r, buf); err != nil {
			return r.fail(truncated(err))
		}
		r.names[j] = string(buf)
	}
	return nil
}

func (r *Reader) fail(err error) error {
	r.err = err
	return err
}

// Names returns the column names, reading the header if needed. It
// returns nil if the header is unreadable (the next read surfaces the
// error).
func (r *Reader) Names() []string {
	if err := r.header(); err != nil {
		return nil
	}
	return r.names
}

// Labeled reports whether the stream carries per-row labels (readable
// after the header, i.e. after Names or the first read).
func (r *Reader) Labeled() bool { return r.labeled }

// nextFrame parses frame headers up to the next batch frame with rows,
// which it opens, or through the end frame, where it returns io.EOF. It
// is the one frame-header parser behind every read surface.
func (r *Reader) nextFrame() error {
	for {
		if _, err := io.ReadFull(r.r, r.scratch[:1]); err != nil {
			return truncated(err)
		}
		switch r.scratch[0] {
		case frameEnd:
			if _, err := io.ReadFull(r.r, r.scratch[1:9]); err != nil {
				return truncated(err)
			}
			if want := binary.LittleEndian.Uint64(r.scratch[1:9]); want != r.total {
				return fmt.Errorf("ppclust-rows: end frame declares %d rows, stream carried %d", want, r.total)
			}
			r.done = true
			return io.EOF
		case frameBatch:
			if _, err := io.ReadFull(r.r, r.scratch[1:5]); err != nil {
				return truncated(err)
			}
			rows := int(binary.LittleEndian.Uint32(r.scratch[1:5]))
			if rows == 0 {
				continue
			}
			if rows > maxBatchRows || rows*r.cols*8 > maxBatchSize {
				return fmt.Errorf("ppclust-rows: batch of %d rows exceeds frame limits", rows)
			}
			r.left = rows
			r.total += uint64(rows)
			return nil
		default:
			return fmt.Errorf("ppclust-rows: unknown frame type 0x%02x", r.scratch[0])
		}
	}
}

// open leaves a frame with values still on the wire open, or says why
// there is none: io.EOF after a complete stream, or the stream's error.
func (r *Reader) open() error {
	if err := r.header(); err != nil {
		return err // the header's error, or any later one
	}
	if r.done {
		return io.EOF
	}
	if r.left > 0 {
		return nil
	}
	err := r.nextFrame()
	if err != nil && err != io.EOF {
		r.fail(err)
	}
	return err
}

// values reads whole rows of the open frame from the wire into dst —
// one memmove on little-endian hosts — and returns how many arrived
// whole. An error means the stream broke off there; the reader fails.
func (r *Reader) values(dst []float64) (int, error) {
	n, err := 0, error(nil)
	if hostLittle {
		n, err = io.ReadFull(r.r, f64bytes(dst))
		n /= 8
	} else {
		var buf [8]byte
		for ; n < len(dst); n++ {
			if _, err = io.ReadFull(r.r, buf[:]); err != nil {
				break
			}
			dst[n] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		}
	}
	rows := n / r.cols
	r.left -= rows
	if err != nil {
		return rows, r.fail(truncated(err))
	}
	return rows, nil
}

// decode reads the rest of the open frame, opening the next if none is,
// into fresh memory for Read and ReadBatch, grown while the payload
// arrives. If the stream breaks off mid-frame, the whole rows that
// arrived are kept and the error waits behind them — except on labeled
// streams, whose rows are whole only with their labels, which follow the
// frame's values.
func (r *Reader) decode() error {
	if err := r.open(); err != nil {
		return err
	}
	rows := r.left
	want := rows * r.cols
	vals := matrix.GrowRows(nil, r.cols, rows)
	got := 0
	for {
		k, err := r.values(vals[got:])
		got += k * r.cols
		if err != nil {
			if r.labeled || got == 0 {
				return err
			}
			r.batch = vals[:got]
			return nil
		}
		if got == want {
			break
		}
		vals = matrix.GrowRows(vals, r.cols, rows)
	}
	if r.labeled {
		r.labels = make([]int, rows)
		for i := range r.labels {
			if _, err := io.ReadFull(r.r, r.scratch[:8]); err != nil {
				return r.fail(truncated(err))
			}
			r.labels[i] = int(int64(binary.LittleEndian.Uint64(r.scratch[:8])))
		}
	}
	r.batch = vals
	return nil
}

// Read returns the next row. The returned slice is freshly backed per
// decoded frame and remains valid after subsequent Reads.
func (r *Reader) Read() ([]float64, error) {
	row, _, err := r.ReadLabeled()
	return row, err
}

// ReadLabeled is Read plus the row's label on labeled streams (label is
// 0 on unlabeled ones).
func (r *Reader) ReadLabeled() ([]float64, int, error) {
	if len(r.batch) == 0 {
		if err := r.decode(); err != nil {
			return nil, 0, err
		}
	}
	row := r.batch[:r.cols:r.cols]
	r.batch = r.batch[r.cols:]
	label := 0
	if r.labeled {
		label, r.labels = r.labels[0], r.labels[1:]
	}
	return row, label, nil
}

// ReadBatch returns the remainder of the current batch frame (or the next
// one) as a fresh matrix plus labels on labeled streams; io.EOF after a
// complete stream. Bulk consumers use it to skip per-row slicing.
func (r *Reader) ReadBatch() (*matrix.Dense, []int, error) {
	if len(r.batch) == 0 {
		if err := r.decode(); err != nil {
			return nil, nil, err
		}
	}
	b := matrix.NewDense(len(r.batch)/r.cols, r.cols, r.batch)
	labels := r.labels
	r.batch, r.labels = nil, nil
	return b, labels, nil
}

// ReadRows fills dst with whole rows — len(dst)/len(Names()) of them —
// and returns how many it filled. Values go straight from the buffered
// wire into dst, across frame boundaries. A labeled stream decodes each
// frame as Read does and drops the labels. ReadRows returns short only
// with io.EOF, after a complete stream, or with an error; the rows it
// reports are valid either way.
func (r *Reader) ReadRows(dst []float64) (int, error) {
	if err := r.header(); err != nil {
		return 0, err
	}
	room := len(dst) / r.cols
	n := 0
	for n < room {
		if len(r.batch) > 0 || r.labeled {
			if len(r.batch) == 0 {
				if err := r.decode(); err != nil {
					return n, err
				}
			}
			k := copy(dst[n*r.cols:room*r.cols], r.batch) / r.cols
			r.batch = r.batch[k*r.cols:]
			if r.labeled {
				r.labels = r.labels[k:]
			}
			n += k
			continue
		}
		if err := r.open(); err != nil {
			return n, err
		}
		k, err := r.values(dst[n*r.cols : (n+min(r.left, room-n))*r.cols])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
