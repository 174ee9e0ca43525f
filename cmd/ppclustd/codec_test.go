package main

// Error-path coverage for the streaming codecs: malformed input must
// surface as an error from the reader — and, once a streaming response has
// started, as an aborted connection — never as a silently truncated
// dataset that parses cleanly. Also the CSV writer's byte identity with
// encoding/csv, its allocation bound, and fuzz targets for the CSV reader,
// a CSV write-read round trip and the NDJSON reader (seeds under
// testdata/fuzz).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ppclust/internal/matrix"
)

// drainRows reads whole rows, three at a time, until the first error,
// returning it and the count.
func drainRows(rr rowReader) (int, error) {
	dst := make([]float64, 3*len(rr.Names()))
	n := 0
	for {
		k, err := rr.ReadRows(dst)
		n += k
		if err != nil {
			return n, err
		}
	}
}

func TestCSVReaderTruncatedRecord(t *testing.T) {
	rr := newRowReader(formatCSV, strings.NewReader("x,y,z\n1,2,3\n4,5\n"))
	n, err := drainRows(rr)
	if n != 1 {
		t.Fatalf("rows before error = %d, want 1", n)
	}
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated record must error, got %v", err)
	}
}

func TestCSVReaderNonNumericField(t *testing.T) {
	rr := newRowReader(formatCSV, strings.NewReader("x,y\n1,oops\n"))
	if _, err := drainRows(rr); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("non-numeric field must error, got %v", err)
	}
}

func TestNDJSONReaderWrongArity(t *testing.T) {
	rr := newRowReader(formatNDJSON, strings.NewReader("[1,2,3]\n[4,5]\n"))
	n, err := drainRows(rr)
	if n != 1 {
		t.Fatalf("rows before error = %d, want 1", n)
	}
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("wrong-arity row must error, got %v", err)
	}
}

func TestNDJSONReaderMalformedRow(t *testing.T) {
	rr := newRowReader(formatNDJSON, strings.NewReader("[1,2]\n[3,\n"))
	if _, err := drainRows(rr); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("malformed JSON row must error, got %v", err)
	}
}

func TestNDJSONReaderOversizedLine(t *testing.T) {
	// One line just past the scanner's 16 MiB ceiling: the reader must
	// report bufio.ErrTooLong instead of splitting or truncating the row.
	var sb strings.Builder
	sb.WriteString("[1")
	for sb.Len() < 17*1024*1024 {
		sb.WriteString(",1")
	}
	sb.WriteString("]\n")
	rr := newRowReader(formatNDJSON, strings.NewReader(sb.String()))
	n, err := drainRows(rr)
	if n != 0 {
		t.Fatalf("rows before error = %d, want 0", n)
	}
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversized line must error, got %v", err)
	}
	if !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("err = %v, want the scanner's too-long failure", err)
	}
}

// TestStreamAbortsOnMidStreamGarbage: once a streaming response has
// started, a malformed record must kill the connection — the client sees
// a transport error, never a clean EOF on a truncated release.
func TestStreamAbortsOnMidStreamGarbage(t *testing.T) {
	ts, s := newTestServer(t)
	s.batchRows = 2 // response starts after the first 2-row batch

	csvBody, _ := testCSV(t, 64, 1)
	resp, rel := post(t, ts.URL+"/v1/protect?owner=amy&seed=2", csvBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect: %d", resp.StatusCode)
	}
	tok := token(t, resp)

	// Recover a body whose first rows are valid (from the real release)
	// and which then degenerates into a truncated record.
	lines := strings.Split(strings.TrimSpace(rel), "\n")
	bad := strings.Join(lines[:5], "\n") + "\n1,2\n"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/recover?owner=amy", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		// The abort may already surface at Do for small responses.
		return
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d before the garbage row was reached", hresp.StatusCode)
	}
	if _, err := io.ReadAll(hresp.Body); err == nil {
		t.Fatal("truncated stream ended with a clean EOF; the connection must abort")
	}
}

// csvSpecials are the values whose text forms are easiest to get wrong.
var csvSpecials = []float64{
	0, math.Copysign(0, -1), 1, -7, 42, 1e21, 123456789,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310,
	1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64,
}

// TestCSVWriterMatchesEncodingCSV: the CSV row writer produces exactly the
// bytes of encoding/csv writing the same names and the
// FormatFloat(v, 'g', -1, 64) strings, over random matrices written in
// random batches — header names that need quoting, -0, subnormals,
// ±1e±300 and integers included.
func TestCSVWriterMatchesEncodingCSV(t *testing.T) {
	names := []string{"a", "b c", "d,e", " f", `g"h`, "i\nj", "k"}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rows, cols := rng.Intn(40), 1+rng.Intn(8)
		m := matrix.NewDense(rows, cols, nil)
		for i := range m.Raw() {
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = csvSpecials[rng.Intn(len(csvSpecials))]
			case 1:
				v = float64(rng.Intn(2001) - 1000)
			case 2:
				v = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
				if rng.Intn(2) == 0 {
					v = -v
				}
			default:
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(601)-300))
			}
			m.Raw()[i] = v
		}
		header := make([]string, cols)
		for j := range header {
			header[j] = names[rng.Intn(len(names))]
		}

		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		cw.Write(header)
		rec := make([]string, cols)
		for i := 0; i < rows; i++ {
			for j, v := range m.RawRow(i) {
				rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			cw.Write(rec)
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			t.Fatal(err)
		}

		var got bytes.Buffer
		rw := newRowWriter(formatCSV, &got)
		if err := rw.WriteNames(header); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < rows; {
			hi := lo + 1 + rng.Intn(rows-lo)
			if err := rw.WriteBatch(matrix.NewDense(hi-lo, cols, m.Raw()[lo*cols:hi*cols])); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d (%d×%d): row writer wrote\n%q\nencoding/csv wrote\n%q", trial, rows, cols, got.Bytes(), want.Bytes())
		}
	}
}

// TestCSVWriterAllocations: the CSV writer allocates a fixed handful per
// body, not a string per value — at most 16 for a 2 000×5 body, header
// and flush included.
func TestCSVWriterAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := matrix.NewDense(2000, 5, nil)
	for i := range m.Raw() {
		m.Raw()[i] = rng.NormFloat64() * 100
	}
	names := []string{"a", "b", "c", "d", "e"}
	allocs := testing.AllocsPerRun(5, func() {
		rw := newRowWriter(formatCSV, io.Discard)
		if err := rw.WriteNames(names); err != nil {
			t.Fatal(err)
		}
		if err := rw.WriteBatch(m); err != nil {
			t.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("CSV body of 2000×5 took %v allocations, want ≤ 16", allocs)
	}
}

// FuzzCSVReader: the CSV row reader takes any body to EOF or an error
// without panicking, and every ReadRows call yields whole rows of the
// header's width: as many as fill its three-row buffer, fewer only
// alongside an error.
func FuzzCSVReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		rr := newRowReader(formatCSV, bytes.NewReader(body))
		cols := len(rr.Names())
		dst := make([]float64, 3*cols)
		for {
			n, err := rr.ReadRows(dst)
			if err != nil {
				if n*cols > len(dst) {
					t.Fatalf("%d rows of %d values reported in a buffer of %d", n, cols, len(dst))
				}
				return
			}
			if cols == 0 || n != 3 || len(rr.Names()) != cols {
				t.Fatalf("%d rows of %d values (names now %d) with no error", n, cols, len(rr.Names()))
			}
		}
	})
}

// FuzzCSVWriterRoundTrip: any float64 matrix — raw read as little-endian
// values into 1 to 8 columns named c0… — written by the CSV row writer
// reads back through the CSV row reader bit for bit, NaN as NaN.
func FuzzCSVWriterRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, cols uint8) {
		n := 1 + int(cols%8)
		rows := len(raw) / (8 * n)
		vals := make([]float64, rows*n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		names := make([]string, n)
		for j := range names {
			names[j] = "c" + strconv.Itoa(j)
		}
		var buf bytes.Buffer
		rw := newRowWriter(formatCSV, &buf)
		if err := rw.WriteNames(names); err != nil {
			t.Fatal(err)
		}
		if err := rw.WriteBatch(matrix.NewDense(rows, n, vals)); err != nil {
			t.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		body := buf.String()
		rr := newRowReader(formatCSV, &buf)
		dst := make([]float64, 3*n)
		for i := 0; ; {
			k, err := rr.ReadRows(dst)
			if i+k > rows {
				t.Fatalf("read more than the %d rows written from %q", rows, body)
			}
			for j, v := range dst[:k*n] {
				w := vals[i*n+j]
				if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
					t.Fatalf("row %d col %d: wrote %v (%#x), read %v (%#x)", i+j/n, j%n, w, math.Float64bits(w), v, math.Float64bits(v))
				}
			}
			i += k
			if errors.Is(err, io.EOF) {
				if i != rows {
					t.Fatalf("read %d rows back, wrote %d", i, rows)
				}
				break
			}
			if err != nil {
				t.Fatalf("row %d of %q: %v", i, body, err)
			}
		}
		if !slices.Equal(rr.Names(), names) {
			t.Fatalf("names %q, wrote %q", rr.Names(), names)
		}
	})
}

// ndjsonErrClass names the ways an NDJSON body can end: cleanly, on a
// line past the scanner's limit, or on a malformed row.
func ndjsonErrClass(err error) string {
	switch {
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.Is(err, bufio.ErrTooLong):
		return "too long"
	}
	return "other"
}

// FuzzNDJSONReader: for any body, the NDJSON reader's ReadRows into a
// buffer of 1 to 9 rows yields exactly the rows it yields into a fresh
// one-row buffer per call, bit for bit, and ends with the same class of
// error; neither panics. Seeds under testdata/fuzz come from the NDJSON
// bodies the tests use, plus blank lines, nulls, an empty first row, a
// ragged row and a truncated line.
func FuzzNDJSONReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, dstRows uint8) {
		var want []float64
		rd := newRowReader(formatNDJSON, bytes.NewReader(body))
		var wantErr error
		for wantErr == nil {
			row := make([]float64, len(rd.Names()))
			if _, wantErr = rd.ReadRows(row); wantErr == nil {
				want = append(want, row...)
			}
		}
		rr := newRowReader(formatNDJSON, bytes.NewReader(body))
		cols := max(len(rr.Names()), 1)
		dst := make([]float64, (1+int(dstRows%9))*cols)
		var got []float64
		var gotErr error
		for gotErr == nil {
			var n int
			n, gotErr = rr.ReadRows(dst)
			got = append(got, dst[:n*cols]...)
		}
		if ndjsonErrClass(gotErr) != ndjsonErrClass(wantErr) {
			t.Fatalf("ReadRows ended with %v, row by row with %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("ReadRows yielded %d values, row by row %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("value %d: ReadRows %#x, row by row %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}
