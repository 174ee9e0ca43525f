package main

// Error-path coverage for the text formats the daemon negotiates
// (internal/codec's CSV and NDJSON entries): malformed input must surface
// as an error from the reader — and, once a streaming response has
// started, as an aborted connection — never as a silently truncated
// dataset that parses cleanly. Also the CSV writer's byte identity with
// encoding/csv and its allocation bound. The fuzz targets of these
// readers live with them in internal/codec.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"ppclust/internal/codec"
	"ppclust/internal/matrix"
)

// drainRows reads whole rows, three at a time, until the first error,
// returning it and the count.
func drainRows(rr codec.RowReader) (int, error) {
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
	rr := codec.CSV.NewReader(strings.NewReader("x,y,z\n1,2,3\n4,5\n"))
	n, err := drainRows(rr)
	if n != 1 {
		t.Fatalf("rows before error = %d, want 1", n)
	}
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated record must error, got %v", err)
	}
}

func TestCSVReaderNonNumericField(t *testing.T) {
	rr := codec.CSV.NewReader(strings.NewReader("x,y\n1,oops\n"))
	if _, err := drainRows(rr); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("non-numeric field must error, got %v", err)
	}
}

func TestNDJSONReaderWrongArity(t *testing.T) {
	rr := codec.NDJSON.NewReader(strings.NewReader("[1,2,3]\n[4,5]\n"))
	n, err := drainRows(rr)
	if n != 1 {
		t.Fatalf("rows before error = %d, want 1", n)
	}
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("wrong-arity row must error, got %v", err)
	}
}

func TestNDJSONReaderMalformedRow(t *testing.T) {
	rr := codec.NDJSON.NewReader(strings.NewReader("[1,2]\n[3,\n"))
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
	rr := codec.NDJSON.NewReader(strings.NewReader(sb.String()))
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
		rw := codec.CSV.NewWriter(&got)
		if err := rw.WriteHeader(header, false); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < rows; {
			hi := lo + 1 + rng.Intn(rows-lo)
			if err := rw.WriteBatch(matrix.NewDense(hi-lo, cols, m.Raw()[lo*cols:hi*cols]), nil); err != nil {
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
		rw := codec.CSV.NewWriter(io.Discard)
		if err := rw.WriteHeader(names, false); err != nil {
			t.Fatal(err)
		}
		if err := rw.WriteBatch(m, nil); err != nil {
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
