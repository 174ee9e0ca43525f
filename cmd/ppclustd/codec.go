// Row codecs for ppclustd: incremental readers and writers for the three
// wire formats the service speaks — CSV (with a header row), NDJSON (one
// JSON array of numbers per line) and the framed binary row-batch format
// from internal/codec. All sides are streaming — the server never needs a
// whole dataset in memory to recover or stream-protect.
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"ppclust/internal/codec"
	"ppclust/internal/matrix"
)

const (
	formatCSV    = "csv"
	formatNDJSON = "ndjson"
	formatBinary = codec.FormatName
)

// resolveFormat picks the wire format from an explicit query value, the
// request Content-Type, or (for body-less requests like GET rows) the
// Accept header, defaulting to CSV.
func resolveFormat(query string, header http.Header) (string, error) {
	switch query {
	case formatCSV, formatNDJSON, formatBinary:
		return query, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (want csv, ndjson or binary)", query)
	}
	ct := header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.TrimSpace(ct) {
	case "application/x-ndjson", "application/ndjson", "application/jsonl":
		return formatNDJSON, nil
	case codec.ContentType:
		return formatBinary, nil
	}
	if strings.Contains(header.Get("Accept"), codec.ContentType) {
		return formatBinary, nil
	}
	return formatCSV, nil
}

func contentType(format string) string {
	switch format {
	case formatNDJSON:
		return "application/x-ndjson"
	case formatBinary:
		return codec.ContentType
	}
	return "text/csv; charset=utf-8"
}

// rowReader yields numeric rows one at a time; Read returns io.EOF at the
// end of the stream.
type rowReader interface {
	// Names returns the attribute names, available after the first Read
	// (CSV yields them from the header; NDJSON synthesizes them).
	Names() []string
	Read() ([]float64, error)
}

// rowWriter emits numeric rows a block at a time; the binary format
// writes each block as one batch frame. Close marks the stream complete
// (the binary format writes its end frame there — a response aborted
// before Close reads as truncated on the client, never as a
// short-but-valid dataset); for the text formats it is a flush.
type rowWriter interface {
	WriteNames(names []string) error
	WriteBatch(b *matrix.Dense) error
	Flush() error
	Close() error
}

func newRowReader(format string, r io.Reader) rowReader {
	switch format {
	case formatNDJSON:
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		return &ndjsonReader{sc: sc}
	case formatBinary:
		return codec.NewReader(r)
	}
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	return &csvReader{cr: cr}
}

func newRowWriter(format string, w io.Writer) rowWriter {
	switch format {
	case formatNDJSON:
		return &ndjsonWriter{w: bufio.NewWriter(w)}
	case formatBinary:
		return &binaryWriter{bw: codec.NewWriter(w)}
	}
	// csv.NewWriter over a *bufio.Writer writes into that same buffer, so
	// the header it quotes and the rows csvWriter appends stay in order.
	bw := bufio.NewWriter(w)
	return &csvWriter{bw: bw, cw: csv.NewWriter(bw)}
}

// binaryWriter adapts codec.Writer to the rowWriter contract.
type binaryWriter struct {
	bw *codec.Writer
}

func (b *binaryWriter) WriteNames(names []string) error  { return b.bw.WriteHeader(names, false) }
func (b *binaryWriter) WriteBatch(m *matrix.Dense) error { return b.bw.WriteBatch(m, nil) }
func (b *binaryWriter) Flush() error                     { return b.bw.Flush() }
func (b *binaryWriter) Close() error                     { return b.bw.Close() }

// csvReader parses a header row of names followed by numeric records.
type csvReader struct {
	cr    *csv.Reader
	names []string
}

func (c *csvReader) Names() []string { return c.names }

func (c *csvReader) Read() ([]float64, error) {
	for {
		rec, err := c.cr.Read()
		if err != nil {
			return nil, err
		}
		if c.names == nil {
			c.names = append([]string(nil), rec...)
			continue
		}
		if len(rec) != len(c.names) {
			return nil, fmt.Errorf("row has %d fields, header has %d", len(rec), len(c.names))
		}
		row := make([]float64, len(rec))
		for j, field := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return nil, fmt.Errorf("field %d: %w", j, err)
			}
			row[j] = v
		}
		return row, nil
	}
}

// ndjsonReader parses one JSON array of numbers per line, skipping blank
// lines, and synthesizes c0..c{n-1} names from the first row.
type ndjsonReader struct {
	sc    *bufio.Scanner
	names []string
}

func (n *ndjsonReader) Names() []string { return n.names }

func (n *ndjsonReader) Read() ([]float64, error) {
	for n.sc.Scan() {
		line := strings.TrimSpace(n.sc.Text())
		if line == "" {
			continue
		}
		var row []float64
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			return nil, fmt.Errorf("parsing ndjson row: %w", err)
		}
		if n.names == nil {
			n.names = make([]string, len(row))
			for j := range n.names {
				n.names[j] = "c" + strconv.Itoa(j)
			}
		}
		if len(row) != len(n.names) {
			return nil, fmt.Errorf("row has %d values, stream has %d columns", len(row), len(n.names))
		}
		return row, nil
	}
	if err := n.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
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

func (c *csvWriter) WriteNames(names []string) error { return c.cw.Write(names) }

func (c *csvWriter) WriteBatch(b *matrix.Dense) error {
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

type ndjsonWriter struct {
	w *bufio.Writer
}

// WriteNames is a no-op for NDJSON: the format carries bare rows.
func (n *ndjsonWriter) WriteNames([]string) error { return nil }

func (n *ndjsonWriter) WriteBatch(b *matrix.Dense) error {
	for i := 0; i < b.Rows(); i++ {
		raw, err := json.Marshal(b.RawRow(i))
		if err != nil {
			return err
		}
		if _, err := n.w.Write(raw); err != nil {
			return err
		}
		if err := n.w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

func (n *ndjsonWriter) Flush() error { return n.w.Flush() }

// Close is a flush: NDJSON has no stream terminator.
func (n *ndjsonWriter) Close() error { return n.Flush() }
