package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"ppclust/internal/matrix"
)

// encode frames names+rows (and labels when non-nil) into a buffer.
func encode(t *testing.T, names []string, rows [][]float64, labels []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(names, labels != nil); err != nil {
		t.Fatal(err)
	}
	if labels != nil {
		flat := make([]float64, 0, len(rows)*len(names))
		for _, r := range rows {
			flat = append(flat, r...)
		}
		if err := w.WriteBatch(matrix.NewDense(len(rows), len(names), flat), labels); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, r := range rows {
			if err := w.WriteRow(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTripBitIdentical: every float64 bit pattern that can appear in
// a dataset — subnormals, negative zero, extremes — survives the wire
// unchanged, and rows stay valid after later Reads (the RowSource
// contract the service's batch accumulation depends on).
func TestRoundTripBitIdentical(t *testing.T) {
	rows := [][]float64{
		{1.5, -2.25, 0},
		{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64},
		{1e-300, -1e300, 0.1},
	}
	raw := encode(t, []string{"a", "b", "c"}, rows, nil)
	rd := NewReader(bytes.NewReader(raw))
	if names := rd.Names(); len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
	var got [][]float64
	for {
		row, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, row)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i, r := range rows {
		for j, v := range r {
			if math.Float64bits(got[i][j]) != math.Float64bits(v) {
				t.Errorf("row %d col %d: %x != %x", i, j, got[i][j], v)
			}
		}
	}
	// A second Read past EOF stays EOF.
	if _, err := rd.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("read past end = %v", err)
	}
}

// TestRoundTripLabeled exercises the labeled flag used by ring
// replication: labels ride alongside rows and ReadBatch returns both.
func TestRoundTripLabeled(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	labels := []int{7, -1, 0}
	raw := encode(t, []string{"x", "y"}, rows, labels)
	rd := NewReader(bytes.NewReader(raw))
	if rd.Names() == nil || !rd.Labeled() {
		t.Fatal("stream must read as labeled")
	}
	b, ls, err := rd.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows() != 3 || ls[0] != 7 || ls[1] != -1 || b.At(2, 1) != 6 {
		t.Fatalf("batch = %v labels = %v", b, ls)
	}
	if _, _, err := rd.ReadBatch(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last batch: %v", err)
	}
}

// TestEmptyNamesSynthesized: empty column names come back as c0..c{n-1},
// matching the NDJSON reader's convention.
func TestEmptyNamesSynthesized(t *testing.T) {
	raw := encode(t, []string{"", "", ""}, [][]float64{{1, 2, 3}}, nil)
	rd := NewReader(bytes.NewReader(raw))
	names := rd.Names()
	if len(names) != 3 || names[0] != "c0" || names[2] != "c2" {
		t.Fatalf("names = %v", names)
	}
}

// TestTruncationDetected: a stream cut anywhere before its end frame must
// never read as complete — the receiver either gets an error (usually
// ErrTruncated) or keeps reading rows, but never a clean io.EOF. This is
// the property the daemon's abort-instead-of-finish error handling rests
// on.
func TestTruncationDetected(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	raw := encode(t, []string{"a", "b"}, rows, nil)
	for cut := 0; cut < len(raw); cut++ {
		rd := NewReader(bytes.NewReader(raw[:cut]))
		var err error
		for err == nil {
			_, err = rd.Read()
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("stream cut at byte %d/%d read as complete", cut, len(raw))
		}
	}
	// The canonical abort shape — header and batches flushed, producer
	// dies before Close — is specifically ErrTruncated, with the flushed
	// rows still readable first.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader([]string{"a", "b"}, false); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.WriteRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil { // flush, never Close: an abort
		t.Fatal(err)
	}
	rd := NewReader(bytes.NewReader(buf.Bytes()))
	n := 0
	var err error
	for {
		if _, err = rd.Read(); err != nil {
			break
		}
		n++
	}
	if !errors.Is(err, ErrTruncated) || n != len(rows) {
		t.Fatalf("aborted stream: %d rows, err %v; want %d rows then ErrTruncated", n, err, len(rows))
	}
}

// TestEndFrameCountMismatch: an end frame whose declared total disagrees
// with the rows carried is corruption, not success.
func TestEndFrameCountMismatch(t *testing.T) {
	raw := encode(t, []string{"a"}, [][]float64{{1}, {2}}, nil)
	// The trailing 8 bytes are the end frame's row count; corrupt them.
	binary.LittleEndian.PutUint64(raw[len(raw)-8:], 99)
	rd := NewReader(bytes.NewReader(raw))
	var err error
	for err == nil {
		_, err = rd.Read()
	}
	if errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "end frame declares") {
		t.Fatalf("err = %v", err)
	}
}

// TestHeaderRejections: bad magic, unsupported version, hostile column
// counts and unknown frame types all fail crisply instead of allocating.
func TestHeaderRejections(t *testing.T) {
	good := encode(t, []string{"a"}, [][]float64{{1}}, nil)

	bad := append([]byte(nil), good...)
	copy(bad, "NOPE")
	if _, err := NewReader(bytes.NewReader(bad)).Read(); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[4] = 9
	if _, err := NewReader(bytes.NewReader(bad)).Read(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}

	// Column count beyond maxCols must be rejected from the fixed-size
	// header alone — before any name/batch allocation.
	bad = append([]byte(nil), good[:10]...)
	binary.LittleEndian.PutUint32(bad[6:10], 1<<20)
	if _, err := NewReader(bytes.NewReader(bad)).Read(); err == nil || !strings.Contains(err.Error(), "column count") {
		t.Fatalf("huge cols: %v", err)
	}

	// An unknown frame type after the header is an error, not a skip.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader([]string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('Z')
	if _, err := NewReader(bytes.NewReader(buf.Bytes())).Read(); err == nil || !strings.Contains(err.Error(), "unknown frame") {
		t.Fatalf("unknown frame: %v", err)
	}

	// A batch frame declaring more rows than the size limits allow is
	// rejected before its payload is allocated.
	buf.Reset()
	w = NewWriter(&buf)
	if err := w.WriteHeader([]string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	frame := [5]byte{frameBatch}
	binary.LittleEndian.PutUint32(frame[1:], 1<<23)
	buf.Write(frame[:])
	if _, err := NewReader(bytes.NewReader(buf.Bytes())).Read(); err == nil || !strings.Contains(err.Error(), "frame limits") {
		t.Fatalf("huge batch: %v", err)
	}
}

// TestWriterContract: the ordering and shape rules a misuse trips over.
func TestWriterContract(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRow([]float64{1}); err == nil {
		t.Error("WriteRow before header accepted")
	}
	if err := w.Close(); err == nil {
		t.Error("Close before header accepted")
	}
	if err := w.WriteHeader([]string{"a", "b"}, false); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader([]string{"a", "b"}, false); err == nil {
		t.Error("double header accepted")
	}
	if err := w.WriteRow([]float64{1}); err == nil {
		t.Error("short row accepted")
	}
	if err := w.WriteBatch(matrix.NewDense(1, 3, nil), nil); err == nil {
		t.Error("batch with wrong column count accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("second Close must be a no-op:", err)
	}

	lw := NewWriter(&buf)
	if err := lw.WriteHeader([]string{"a"}, true); err != nil {
		t.Fatal(err)
	}
	if err := lw.WriteRow([]float64{1}); err == nil {
		t.Error("WriteRow on a labeled stream accepted")
	}
	if err := lw.WriteBatch(matrix.NewDense(2, 1, []float64{1, 2}), []int{5}); err == nil {
		t.Error("label/row count mismatch accepted")
	}
}

// TestRowBufferingBatches: WriteRow's internal buffering emits multiple
// batch frames for large streams, and row identity survives the frame
// boundaries.
func TestRowBufferingBatches(t *testing.T) {
	const rows = defaultBatchRows + 137
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader([]string{"v"}, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := w.WriteRow([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(bytes.NewReader(buf.Bytes()))
	for i := 0; i < rows; i++ {
		row, err := rd.Read()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row[0] != float64(i) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
	if _, err := rd.Read(); !errors.Is(err, io.EOF) {
		t.Fatal("stream must end after the buffered rows")
	}
}

// declaredFrame is a header of cols unnamed columns and one batch frame
// header declaring rows rows, with none of the frame's payload: 31 bytes
// claiming a 256 MiB frame at 8 columns and 2²² rows.
func declaredFrame(cols, rows int, labeled bool) []byte {
	var buf bytes.Buffer
	buf.WriteString("PPRW")
	flags := byte(0)
	if labeled {
		flags = flagLabeled
	}
	buf.Write([]byte{version, flags})
	buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(cols)))
	for range cols {
		buf.Write([]byte{0, 0})
	}
	buf.WriteByte(frameBatch)
	buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(rows)))
	return buf.Bytes()
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeclaredFrameAllocatesWhatArrives: a frame header costs the decoder
// what the sender actually sent, not what it declared. 31 bytes declaring
// a 256 MiB frame (and, labeled, 32 MiB of labels) allocate under 1 MiB
// through every read surface and still end in ErrTruncated.
func TestDeclaredFrameAllocatesWhatArrives(t *testing.T) {
	dst := make([]float64, 4096*8)
	surfaces := map[string]func(*Reader) error{
		"Read":      func(rd *Reader) error { _, err := rd.Read(); return err },
		"ReadBatch": func(rd *Reader) error { _, _, err := rd.ReadBatch(); return err },
		"ReadRows":  func(rd *Reader) error { _, err := rd.ReadRows(dst); return err },
	}
	for _, labeled := range []bool{false, true} {
		body := declaredFrame(8, maxBatchRows, labeled)
		if len(body) != 31 {
			t.Fatalf("declared frame is %d bytes, want 31", len(body))
		}
		for name, read := range surfaces {
			var err error
			got := allocated(func() { err = read(NewReader(bytes.NewReader(body))) })
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s (labeled %v): err = %v, want ErrTruncated", name, labeled, err)
			}
			if got >= 1<<20 {
				t.Fatalf("%s (labeled %v): %d B allocated for a 31 B body, want under 1 MiB", name, labeled, got)
			}
		}
	}
}

// TestFrameDecodesInOneAllocation: a 4 096×16 frame (512 KiB, the
// daemon's default batch at 16 columns) still decodes into one slice of
// its size, and a 20 000×16 frame decodes bit-identically through a
// grown one, allocating about 4/3 of its size.
func TestFrameDecodesInOneAllocation(t *testing.T) {
	for _, shape := range [][2]int{{4096, 16}, {20000, 16}} {
		m := matrix.NewDense(shape[0], shape[1], nil)
		for i := range m.Raw() {
			m.Raw()[i] = float64(i) * 0.5
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteHeader(make([]string, shape[1]), false); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBatch(m, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd := NewReader(bytes.NewReader(buf.Bytes()))
		if rd.Names() == nil {
			t.Fatal("header unreadable")
		}
		var b *matrix.Dense
		var err error
		got := allocated(func() { b, _, err = rd.ReadBatch() })
		if err != nil || !matrix.Equal(b, m) {
			t.Fatalf("%v frame: err %v, decoded matrix differs", shape, err)
		}
		// 16 KiB of slack covers the matrix header and whatever the
		// runtime allocates meanwhile; a second slice would cost more.
		frame := uint64(8 * len(m.Raw()))
		if limit := frame*4/3 + 16<<10; got > limit {
			t.Fatalf("%v frame of %d B: %d B allocated, want at most %d", shape, frame, got, limit)
		}
		if shape[0] == 4096 && got > frame+16<<10 {
			t.Fatalf("4096×16 frame of %d B: %d B allocated, want one slice", frame, got)
		}
	}
}

// readErrClass buckets a read error the way callers branch on it.
func readErrClass(err error) string {
	switch {
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	}
	return "other"
}

// FuzzBinaryReader: for any body, ReadRows into a buffer of 1 to 9 rows
// yields exactly the rows Read yields, bit for bit, and ends with the same
// class of error (io.EOF, ErrTruncated or another); neither panics. Seeds
// under testdata/fuzz cover multi-frame, labeled and zero-row-frame
// streams, truncation mid-header and mid-payload, bad magic, an oversized
// frame header and an end-frame count mismatch.
func FuzzBinaryReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, dstRows uint8) {
		var want []float64
		rd := NewReader(bytes.NewReader(body))
		var wantErr error
		for wantErr == nil {
			var row []float64
			if row, wantErr = rd.Read(); wantErr == nil {
				want = append(want, row...)
			}
		}
		rr := NewReader(bytes.NewReader(body))
		cols := max(len(rr.Names()), 1)
		dst := make([]float64, (1+int(dstRows%9))*cols)
		var got []float64
		var gotErr error
		for gotErr == nil {
			var n int
			n, gotErr = rr.ReadRows(dst)
			got = append(got, dst[:n*cols]...)
		}
		if readErrClass(gotErr) != readErrClass(wantErr) {
			t.Fatalf("ReadRows ended with %v, Read with %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("ReadRows yielded %d values, Read %d", len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("value %d: ReadRows %#x, Read %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}
