package codec

// The format table: one entry per row wire format, each with its reader
// and writer, and the one negotiation rule. The text formats live here
// too — CSV (a header row of names, then one record of numbers per row)
// and NDJSON (one JSON array of numbers per line, names synthesized as
// c0..c{n-1}); the binary format is codec.go's Reader and Writer.

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"ppclust/internal/matrix"
)

// RowReader is a stream of numeric rows, read whole rows at a time.
type RowReader interface {
	// Names returns the column names, reading the stream's header (or
	// first row) if needed; nil when the stream is empty or unreadable,
	// which the next read reports.
	Names() []string
	// ReadRows fills dst with whole rows of len(Names()) values and
	// returns how many it filled; those rows are valid even alongside an
	// error. It returns short only with io.EOF or an error.
	ReadRows(dst []float64) (int, error)
}

// RowWriter writes a row stream: the header, batches of rows, then Close,
// which marks the stream complete — the binary end frame, a flush for the
// text formats. A response aborted before Close reads as truncated in
// binary, never as a short-but-valid dataset. Only the binary format
// carries labels: the text writers refuse a labeled header and write no
// labels.
type RowWriter interface {
	WriteHeader(names []string, labeled bool) error
	WriteBatch(b *matrix.Dense, labels []int) error
	Flush() error
	Close() error
}

// Format is one row wire format: the name a `format=` query selects it
// by, the Content-Type its bodies carry, and its reader and writer.
type Format struct {
	Name        string
	ContentType string
	NewReader   func(io.Reader) RowReader
	NewWriter   func(io.Writer) RowWriter
}

// The format table.
var (
	CSV    = &Format{"csv", "text/csv; charset=utf-8", newCSVReader, newCSVWriter}
	NDJSON = &Format{"ndjson", "application/x-ndjson", newNDJSONReader, newNDJSONWriter}
	Binary = &Format{FormatName, ContentType,
		func(r io.Reader) RowReader { return NewReader(r) },
		func(w io.Writer) RowWriter { return NewWriter(w) }}
)

// Lookup returns the format a `format=` value names.
func Lookup(name string) (*Format, error) {
	for _, f := range []*Format{CSV, NDJSON, Binary} {
		if f.Name == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("unknown format %q (want csv, ndjson or binary)", name)
}

// Negotiate picks one exchange's format: a `format=` query value wins,
// then the Content-Type (application/x-ndjson, application/ndjson and
// application/jsonl mean NDJSON, application/x-ppclust-rows binary;
// parameters are ignored), then an Accept header naming binary, which is
// how a body-less GET asks for it. The default is CSV.
func Negotiate(query string, h http.Header) (*Format, error) {
	if query != "" {
		return Lookup(query)
	}
	ct, _, _ := strings.Cut(h.Get("Content-Type"), ";")
	switch strings.TrimSpace(ct) {
	case "application/x-ndjson", "application/ndjson", "application/jsonl":
		return NDJSON, nil
	case ContentType:
		return Binary, nil
	}
	if strings.Contains(h.Get("Accept"), ContentType) {
		return Binary, nil
	}
	return CSV, nil
}

var errTextLabels = errors.New("labeled rows need the binary format")

func newCSVReader(r io.Reader) RowReader {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	return &csvReader{cr: cr}
}

func newCSVWriter(w io.Writer) RowWriter {
	// csv.NewWriter over a *bufio.Writer writes into that same buffer, so
	// the header it quotes and the rows csvWriter appends stay in order.
	bw := bufio.NewWriter(w)
	return &csvWriter{bw: bw, cw: csv.NewWriter(bw)}
}

func newNDJSONReader(r io.Reader) RowReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &ndjsonReader{sc: sc}
}

func newNDJSONWriter(w io.Writer) RowWriter {
	bw := bufio.NewWriter(w)
	return &ndjsonWriter{w: bw, enc: json.NewEncoder(bw)}
}

// csvReader parses a header row of names followed by numeric records.
type csvReader struct {
	cr    *csv.Reader
	names []string
	err   error // why the header could not be read, io.EOF for an empty body
}

func (c *csvReader) Names() []string {
	if c.names == nil && c.err == nil {
		rec, err := c.cr.Read()
		if err != nil {
			c.err = err
		} else {
			c.names = append([]string(nil), rec...)
		}
	}
	return c.names
}

func (c *csvReader) ReadRows(dst []float64) (int, error) {
	if c.Names() == nil {
		return 0, c.err
	}
	cols := len(c.names)
	n := 0
	for ; (n+1)*cols <= len(dst); n++ {
		rec, err := c.cr.Read()
		if err != nil {
			return n, err
		}
		if len(rec) != cols {
			return n, fmt.Errorf("row has %d fields, header has %d", len(rec), cols)
		}
		for j, field := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return n, fmt.Errorf("field %d: %w", j, err)
			}
			dst[n*cols+j] = v
		}
	}
	return n, nil
}

// ndjsonReader parses one JSON array of numbers per line, skipping blank
// lines, and synthesizes c0..c{n-1} names from the first row.
type ndjsonReader struct {
	sc    *bufio.Scanner
	names []string
	first []float64 // the first row, parsed by Names and not yet read
	err   error     // why the first row could not be read, io.EOF for an empty body
}

func (n *ndjsonReader) Names() []string {
	if n.names == nil && n.err == nil {
		row, err := n.next(nil)
		switch {
		case err != nil:
			n.err = err
		case len(row) == 0:
			n.err = errors.New("ndjson row has no values")
		default:
			n.first = row
			n.names = make([]string, len(row))
			for j := range n.names {
				n.names[j] = "c" + strconv.Itoa(j)
			}
		}
	}
	return n.names
}

// next parses the next non-blank line into row's memory, zeroed first
// because a JSON null leaves its element as it was.
func (n *ndjsonReader) next(row []float64) ([]float64, error) {
	for n.sc.Scan() {
		line := bytes.TrimSpace(n.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		clear(row)
		row = row[:0]
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, fmt.Errorf("parsing ndjson row: %w", err)
		}
		if n.names != nil && len(row) != len(n.names) {
			return nil, fmt.Errorf("row has %d values, stream has %d columns", len(row), len(n.names))
		}
		return row, nil
	}
	if err := n.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

func (n *ndjsonReader) ReadRows(dst []float64) (int, error) {
	if n.Names() == nil {
		return 0, n.err
	}
	cols := len(n.names)
	k := 0
	for ; (k+1)*cols <= len(dst); k++ {
		row := dst[k*cols : (k+1)*cols : (k+1)*cols]
		if n.first != nil {
			copy(row, n.first)
			n.first = nil
		} else if _, err := n.next(row); err != nil {
			return k, err
		}
	}
	return k, nil
}

// csvWriter writes the header through encoding/csv, which quotes names
// that need it, and formats each row straight into one reused line. A
// number never needs quoting, so the bytes are the ones csv.Writer would
// write for the FormatFloat(v, 'g', -1, 64) strings, without a string per
// value.
type csvWriter struct {
	bw   *bufio.Writer
	cw   *csv.Writer
	line []byte
}

func (c *csvWriter) WriteHeader(names []string, labeled bool) error {
	if labeled {
		return errTextLabels
	}
	return c.cw.Write(names)
}

func (c *csvWriter) WriteBatch(b *matrix.Dense, _ []int) error {
	for i := 0; i < b.Rows(); i++ {
		line := c.line[:0]
		for j, v := range b.RawRow(i) {
			if j > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendFloat(line, v, 'g', -1, 64)
		}
		c.line = append(line, '\n')
		if _, err := c.bw.Write(c.line); err != nil {
			return err
		}
	}
	return nil
}

func (c *csvWriter) Flush() error { return c.bw.Flush() }

// Close is a flush: CSV has no stream terminator.
func (c *csvWriter) Close() error { return c.Flush() }

// ndjsonWriter writes each row as json.Marshal would, then a newline.
type ndjsonWriter struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// WriteHeader writes nothing: NDJSON carries bare rows.
func (n *ndjsonWriter) WriteHeader(_ []string, labeled bool) error {
	if labeled {
		return errTextLabels
	}
	return nil
}

func (n *ndjsonWriter) WriteBatch(b *matrix.Dense, _ []int) error {
	for i := 0; i < b.Rows(); i++ {
		if err := n.enc.Encode(b.RawRow(i)); err != nil {
			return err
		}
	}
	return nil
}

func (n *ndjsonWriter) Flush() error { return n.w.Flush() }

// Close is a flush: NDJSON has no stream terminator.
func (n *ndjsonWriter) Close() error { return n.Flush() }
