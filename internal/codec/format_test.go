package codec

// Tests of the format table: negotiation, a round trip through every
// entry, and fuzz targets for the text formats — the CSV reader, a CSV
// write-read round trip and the NDJSON reader (seeds under
// testdata/fuzz).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ppclust/internal/matrix"
)

// TestNegotiate: the format= query wins, then the Content-Type with its
// parameters ignored, then an Accept header naming binary; the default is
// CSV. An unknown format= value is an error naming all three formats.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		query, contentType, accept string
		want                       *Format
	}{
		{"csv", "", "", CSV},
		{"ndjson", "", "", NDJSON},
		{"binary", "", "", Binary},
		{"csv", ContentType, ContentType, CSV},
		{"", "application/x-ndjson", "", NDJSON},
		{"", "application/ndjson", "", NDJSON},
		{"", "application/jsonl", "", NDJSON},
		{"", "application/x-ndjson; charset=utf-8", "", NDJSON},
		{"", " application/jsonl ;q=1", "", NDJSON},
		{"", ContentType, "", Binary},
		{"", ContentType + "; v=1", "", Binary},
		{"", "", ContentType, Binary},
		{"", "", "text/plain, " + ContentType, Binary},
		{"", "application/x-ndjson", ContentType, NDJSON},
		{"", "text/csv", "", CSV},
		{"", "text/csv; charset=utf-8", "", CSV},
		{"", "", "", CSV},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.contentType != "" {
			h.Set("Content-Type", tc.contentType)
		}
		if tc.accept != "" {
			h.Set("Accept", tc.accept)
		}
		got, err := Negotiate(tc.query, h)
		if err != nil || got != tc.want {
			t.Errorf("format=%q Content-Type=%q Accept=%q: got %v, %v; want %s", tc.query, tc.contentType, tc.accept, got, err, tc.want.Name)
		}
	}
	for _, f := range []*Format{CSV, NDJSON, Binary} {
		if got, err := Lookup(f.Name); err != nil || got != f {
			t.Errorf("Lookup(%q) = %v, %v", f.Name, got, err)
		}
	}
	for _, name := range []string{"xml", "json", "CSV"} {
		_, err := Negotiate(name, http.Header{"Content-Type": {ContentType}})
		if err == nil {
			t.Fatalf("format=%s accepted", name)
		}
		for _, want := range []string{"csv", "ndjson", "binary"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("format=%s: error %q does not name %s", name, err, want)
			}
		}
	}
}

// TestFormatsRoundTrip: rows written through every table entry read back
// through the same entry bit for bit — -0, subnormals, ±1e±300 and
// integers included — with the names written (NDJSON, which carries
// none, reads back c0…).
func TestFormatsRoundTrip(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -7, 42, 123456789, 1 << 53, 1e21,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310,
		1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64, 0.1, -2.5,
	}
	const cols = 3
	m := matrix.NewDense(len(vals), cols, nil)
	for i := range m.Raw() {
		m.Raw()[i] = vals[(i*7)%len(vals)]
	}
	names := []string{"a", "b c", "d,e"}
	for _, f := range []*Format{CSV, NDJSON, Binary} {
		var buf bytes.Buffer
		w := f.NewWriter(&buf)
		if err := w.WriteHeader(names, false); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < m.Rows(); lo += 5 {
			hi := min(lo+5, m.Rows())
			if err := w.WriteBatch(matrix.NewDense(hi-lo, cols, m.Raw()[lo*cols:hi*cols]), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r := f.NewReader(&buf)
		got := make([]float64, 0, len(m.Raw()))
		dst := make([]float64, 4*cols)
		for {
			n, err := r.ReadRows(dst)
			got = append(got, dst[:n*cols]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
		}
		if len(got) != len(m.Raw()) {
			t.Fatalf("%s: read %d values back, wrote %d", f.Name, len(got), len(m.Raw()))
		}
		for i, v := range m.Raw() {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Fatalf("%s: value %d wrote %v (%#x), read %v (%#x)", f.Name, i, v, math.Float64bits(v), got[i], math.Float64bits(got[i]))
			}
		}
		want := names
		if f == NDJSON {
			want = []string{"c0", "c1", "c2"}
		}
		if !slices.Equal(r.Names(), want) {
			t.Errorf("%s: names %q, want %q", f.Name, r.Names(), want)
		}
	}
}

// TestTextWritersRefuseLabels: labels ride only in binary frames.
func TestTextWritersRefuseLabels(t *testing.T) {
	for _, f := range []*Format{CSV, NDJSON} {
		if err := f.NewWriter(io.Discard).WriteHeader([]string{"a"}, true); err == nil {
			t.Errorf("%s writer accepted a labeled header", f.Name)
		}
	}
}

// FuzzCSVReader: the CSV row reader takes any body to EOF or an error
// without panicking, and every ReadRows call yields whole rows of the
// header's width: as many as fill its three-row buffer, fewer only
// alongside an error.
func FuzzCSVReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		rr := CSV.NewReader(bytes.NewReader(body))
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
		rw := CSV.NewWriter(&buf)
		if err := rw.WriteHeader(names, false); err != nil {
			t.Fatal(err)
		}
		if err := rw.WriteBatch(matrix.NewDense(rows, n, vals), nil); err != nil {
			t.Fatal(err)
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		body := buf.String()
		rr := CSV.NewReader(&buf)
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
		rd := NDJSON.NewReader(bytes.NewReader(body))
		var wantErr error
		for wantErr == nil {
			row := make([]float64, len(rd.Names()))
			if _, wantErr = rd.ReadRows(row); wantErr == nil {
				want = append(want, row...)
			}
		}
		rr := NDJSON.NewReader(bytes.NewReader(body))
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
