package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"ppclust/internal/codec"
	"ppclust/internal/engine"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/service"
)

// renderBody encodes m in format f with the server's own row writer, in
// blocks of frameRows rows (one batch frame each in binary).
func renderBody(t *testing.T, f *codec.Format, m *matrix.Dense, frameRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw := f.NewWriter(&buf)
	names := make([]string, m.Cols())
	for j := range names {
		names[j] = fmt.Sprintf("a%d", j)
	}
	if err := rw.WriteHeader(names, false); err != nil {
		t.Fatal(err)
	}
	n := m.Cols()
	for lo := 0; lo < m.Rows(); lo += frameRows {
		hi := min(lo+frameRows, m.Rows())
		if err := rw.WriteBatch(matrix.NewDense(hi-lo, n, m.Raw()[lo*n:hi*n]), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBody parses a body in format f with the server's own row reader.
func decodeBody(t *testing.T, f *codec.Format, raw []byte) *matrix.Dense {
	t.Helper()
	m, err := service.ReadAll(f.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("decoding %s body: %v", f.Name, err)
	}
	return m
}

// A fit releases into its own decoded body; the release must be
// bit-identical to a fresh-release fit of the same body and seed in every
// wire format, including binary bodies of one frame and of several.
func TestFitInPlaceMatchesFreshRelease(t *testing.T) {
	ts, s := newTestServer(t) // 64-row response batches
	m := matrix.RandomDense(300, 6, rand.New(rand.NewSource(8)))
	cases := []struct {
		format    *codec.Format
		frameRows int
	}{
		{codec.Binary, 300}, {codec.Binary, 70}, {codec.CSV, 300}, {codec.NDJSON, 300},
	}
	for i, tc := range cases {
		body := renderBody(t, tc.format, m, tc.frameRows)
		owner := fmt.Sprintf("inplace-%d", i)
		resp, got := postBinary(t, ts.URL+"/v1/protect?seed=5&format="+tc.format.Name+"&owner="+owner, "", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s fit: %d %s", tc.format.Name, resp.StatusCode, got)
		}
		opts, err := parseProtectOptions(url.Values{"seed": {"5"}})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := s.svc.Keys.FitProtect(context.Background(), "fresh-"+owner, service.OwnerState{},
			decodeBody(t, tc.format, body), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(decodeBody(t, tc.format, got), fresh.Released) {
			t.Fatalf("%s (%d-row frames): in-place release differs from a fresh release", tc.format.Name, tc.frameRows)
		}
	}
}

// A protect job fits over a stored dataset whose rows may sit in the
// datastore's block cache: it must release into fresh memory and leave the
// stored rows as uploaded.
func TestProtectJobLeavesDatasetRows(t *testing.T) {
	ts, _ := newJobsServer(t)
	_, tok := uploadDataset(t, ts, "alice", "raw", "", "&labels=last", blobsCSV(t, 150, 3, 9))
	rows := func() []byte {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/raw/rows?owner=alice&format=binary", nil)
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("rows: %d %v", resp.StatusCode, err)
		}
		return raw
	}
	before := rows()
	st := submitJob(t, ts, "alice", tok, map[string]any{
		"type": "protect", "dataset": "raw", "dest": "released", "rho1": 0.3, "rho2": 0.3, "seed": 4,
	})
	if got := waitJob(t, ts, "alice", tok, st.ID); got.Error != "" {
		t.Fatalf("protect job: %s", got.Error)
	}
	if !bytes.Equal(rows(), before) {
		t.Fatal("protect job changed its input dataset's rows")
	}
}

// A fit whose Step 1 parameters overflow float64 is the client's fault:
// a minmax range or a zscore std past float64's range is answered 400
// invalid and stores no key, with a memory keyring and with a file
// keyring, which could not even encode an infinite parameter.
func TestFitRefusesOverflowingParams(t *testing.T) {
	bodies := []struct{ norm, csv string }{
		{"minmax", "a,b\n1e308,1\n-1e308,2\n0,3\n5e307,5\n"},
		{"zscore", "a,b\n1.7e308,1\n-1.7e308,2\n1.7e308,3\n-1.7e308,5\n"},
	}
	for _, file := range []bool{false, true} {
		var keys keyring.Store = keyring.NewMemory()
		if file {
			var err error
			if keys, err = keyring.OpenFile(t.TempDir() + "/keys.json"); err != nil {
				t.Fatal(err)
			}
		}
		s := newServerWith(t, engine.New(2, 0), keys)
		ts := httptest.NewServer(s.handler())
		t.Cleanup(ts.Close)
		for _, b := range bodies {
			owner := fmt.Sprintf("overflow-%s-%t", b.norm, file)
			resp, got := post(t, ts.URL+"/v1/protect?seed=1&norm="+b.norm+"&owner="+owner, b.csv)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, `"invalid"`) {
				t.Fatalf("%s fit, file keyring %t: %d %s, want 400 invalid", b.norm, file, resp.StatusCode, got)
			}
			st, err := s.svc.Keys.State(owner)
			if err != nil {
				t.Fatal(err)
			}
			if st.HasKey || st.HasCred {
				t.Fatalf("%s fit, file keyring %t: a refused fit stored %+v", b.norm, file, st)
			}
		}
	}
}

// A non-finite privacy threshold is the client's fault: strconv reads
// "NaN" and "Inf", and a NaN PST would accept every angle, so the fit is
// answered 400 invalid and stores no key.
func TestFitRefusesNonFiniteThreshold(t *testing.T) {
	s := newServerWith(t, engine.New(2, 0), keyring.NewMemory())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	body, _ := testCSV(t, 20, 1)
	for i, q := range []string{"rho1=NaN&rho2=NaN", "rho1=0.3&rho2=NaN", "rho1=Inf&rho2=0.3", "rho1=0.3&rho2=-Inf"} {
		owner := fmt.Sprintf("nan-%d", i)
		resp, got := post(t, ts.URL+"/v1/protect?owner="+owner+"&"+q, body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, `"invalid"`) {
			t.Fatalf("%s: %d %s, want 400 invalid", q, resp.StatusCode, got)
		}
		st, err := s.svc.Keys.State(owner)
		if err != nil {
			t.Fatal(err)
		}
		if st.HasKey || st.HasCred {
			t.Fatalf("%s: a refused fit stored %+v", q, st)
		}
	}
}

// A 2000×32 binary fit allocates at most 1.6 times its body per request,
// in-process client included: the body is decoded once, normalized and
// rotated in place (the engine allocates nothing the size of the data)
// and written back frame by frame. The client reads each release into one
// reused buffer and checks its end frame.
func TestBinaryFitAllocations(t *testing.T) {
	s := newServerWith(t, engine.New(2, 0), keyring.NewMemory())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	body := renderBody(t, codec.Binary, matrix.RandomDense(2000, 32, rand.New(rand.NewSource(3))), 2000)
	client := ts.Client()
	var rel bytes.Buffer
	rel.Grow(2 * len(body))
	tok := ""
	fit := func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/protect?owner=wide", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", codec.ContentType)
		if tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		rel.Reset()
		if _, err := rel.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fit: %d %s", resp.StatusCode, rel.Bytes())
		}
		if tok == "" {
			tok = token(t, resp)
		}
		// One 2000-row frame: the release has the body's layout, down to
		// the end frame's row count.
		raw := rel.Bytes()
		if len(raw) != len(body) || !bytes.Equal(raw[len(raw)-9:], body[len(body)-9:]) {
			t.Fatalf("release of %d B does not end like the %d B body", len(raw), len(body))
		}
	}
	for range 3 {
		fit()
	}
	const fits = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range fits {
		fit()
	}
	runtime.ReadMemStats(&after)
	perFit := float64(after.TotalAlloc-before.TotalAlloc) / fits
	t.Logf("%.2f MB allocated per fit, %.1f× the %d B body", perFit/1e6, perFit/float64(len(body)), len(body))
	if perFit > 1.6*float64(len(body)) {
		t.Fatalf("a fit allocated %.0f B, want <= 1.6× its %d B body", perFit, len(body))
	}
}

// A 20 000×16 binary stream protect at -batch-rows 4096 allocates at most
// its body's size per request, in-process client included: the pump reads
// every batch into one buffer, protects it there and writes it from
// there. The client reads each release into one reused buffer and checks
// its end frame. In steady state the buffer comes from the pool, and a
// request allocates at most 0.15× its body. The race detector's sync.Pool
// drops a quarter of its Puts by design, so under -race only the 1× bound
// applies.
func TestBinaryStreamAllocations(t *testing.T) {
	s := newServerWith(t, engine.New(2, 0), keyring.NewMemory())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	body := renderBody(t, codec.Binary, matrix.RandomDense(20000, 16, rand.New(rand.NewSource(4))), 20000)
	client := ts.Client()
	var rel bytes.Buffer
	rel.Grow(2 * len(body))
	tok := ""
	protect := func(mode string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/protect?owner=streamer&mode="+mode, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", codec.ContentType)
		if tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		rel.Reset()
		if _, err := rel.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", mode, resp.StatusCode, rel.Bytes())
		}
		if tok == "" {
			tok = token(t, resp)
		}
		// The release ends with an end frame counting the body's rows.
		raw := rel.Bytes()
		if !bytes.Equal(raw[len(raw)-9:], body[len(body)-9:]) {
			t.Fatalf("%s release does not end like the body", mode)
		}
	}
	protect("fit")
	for range 3 {
		protect("stream")
	}
	const streams = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range streams {
		protect("stream")
	}
	runtime.ReadMemStats(&after)
	perStream := float64(after.TotalAlloc-before.TotalAlloc) / streams
	t.Logf("%.2f MB allocated per stream protect, %.2f× the %d B body", perStream/1e6, perStream/float64(len(body)), len(body))
	if perStream > float64(len(body)) {
		t.Fatalf("a stream protect allocated %.0f B, want <= its %d B body", perStream, len(body))
	}
	if !raceEnabled && perStream > 0.15*float64(len(body)) {
		t.Fatalf("a steady-state stream protect allocated %.0f B, want <= 0.15× its %d B body", perStream, len(body))
	}
}

// ingestOp returns one request of a steady-state allocation test: it
// posts body to path with the given Content-Type, as the owner the first
// post claims, reads the response into one reused buffer and wants the
// status want. after, when set, runs after each post.
func ingestOp(t *testing.T, ts *httptest.Server, path, contentType string, body []byte, want int, after func()) func() {
	client := ts.Client()
	var out bytes.Buffer
	tok := ""
	return func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out.Reset()
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, out.Bytes())
		}
		if tok == "" {
			tok = resp.Header.Get("X-Ppclust-Token")
		}
		if after != nil {
			after()
		}
	}
}

// steadyAllocs runs op three times to reach steady state, then ten
// times, and returns the bytes and the allocations of one run.
func steadyAllocs(op func()) (bytes, allocs float64) {
	for range 3 {
		op()
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// An upload reads its body in 4 096-row batches through one pooled
// buffer and copies each into the dataset's blocks, in-process client
// included. A 20 000×16 binary upload allocates at most 1.6× its body:
// the blocks, and no decoded copy of the body beside them. The same rows
// as CSV take at most 1.5 allocations per row: the CSV reader's one per
// record, and none per row on the way to the blocks. The dataset is
// deleted after each upload.
func TestUploadAllocations(t *testing.T) {
	s := newServerWith(t, engine.New(2, 0), keyring.NewMemory())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	const rows = 20000
	m := matrix.RandomDense(rows, 16, rand.New(rand.NewSource(5)))
	for _, format := range []*codec.Format{codec.Binary, codec.CSV} {
		owner := "up" + format.Name
		body := renderBody(t, format, m, rows)
		size, allocs := steadyAllocs(ingestOp(t, ts, "/v1/datasets?name=d&owner="+owner, format.ContentType, body,
			http.StatusCreated, func() {
				if err := s.svc.Datasets.Delete(owner, "d"); err != nil {
					t.Fatal(err)
				}
			}))
		t.Logf("%s upload of %d B: %.2f MB (%.2f× the body), %.2f allocations per row",
			format.Name, len(body), size/1e6, size/float64(len(body)), allocs/rows)
		switch {
		case format == codec.Binary && size > 1.6*float64(len(body)):
			t.Fatalf("a binary upload allocated %.0f B, want <= 1.6× its %d B body", size, len(body))
		case format == codec.CSV && allocs > 1.5*rows:
			t.Fatalf("a CSV upload took %.0f allocations, want <= 1.5 per row (%d rows)", allocs, rows)
		}
	}
}

// A CSV fit fills whole rows into one buffer grown as they arrive and
// releases into it: a 2 000×5 fit, in-process client included, takes at
// most 1.5 allocations per row, the CSV reader's one per record among
// them.
func TestCSVFitAllocations(t *testing.T) {
	s := newServerWith(t, engine.New(2, 0), keyring.NewMemory())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	const rows = 2000
	body := renderBody(t, codec.CSV, matrix.RandomDense(rows, 5, rand.New(rand.NewSource(6))), rows)
	_, allocs := steadyAllocs(ingestOp(t, ts, "/v1/protect?owner=csvfit", codec.CSV.ContentType, body, http.StatusOK, nil))
	t.Logf("%.2f allocations per row of a %d×5 CSV fit", allocs/rows, rows)
	if allocs > 1.5*rows {
		t.Fatalf("a CSV fit took %.0f allocations, want <= 1.5 per row (%d rows)", allocs, rows)
	}
}

// declaredFrameBody is 31 bytes of binary body: a header of 8 unnamed
// columns and a batch frame header declaring 2²² rows (256 MiB), with
// none of the frame's payload.
func declaredFrameBody() []byte {
	body := []byte("PPRW\x01\x00")
	body = binary.LittleEndian.AppendUint32(body, 8)
	body = append(body, make([]byte, 2*8)...)
	body = append(body, 'B')
	return binary.LittleEndian.AppendUint32(body, 1<<22)
}

// A body's headers cannot make the daemon reserve memory its bytes never
// sent. The 31-byte body declaring a 256 MiB frame is answered 400 by fit
// protect and by dataset upload, which read an unknown owner's body before
// any token check. Bodies of 65 536 columns, which at -batch-rows 4096
// would fill a 2 GiB batch, are answered 400 by stream protect of a
// 4-column key on their header alone, with one row and with eight:
// buffering the eight rows' 4 MiB would take 10.5 MiB (a batch buffer
// grown from one row to four to sixteen). Each request allocates under
// 6 MiB. Requests go straight to the handler: over a socket, a refusal
// sent before the body is read races the client's upload of the rest,
// and a Go client may report its failed write instead of the 400.
func TestDeclaredBodiesAllocateWhatArrives(t *testing.T) {
	s := newServerWith(t, engine.New(2, 0), keyring.NewMemory())
	h := s.handler()
	serve := func(url, token string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		req.Header.Set("Content-Type", codec.ContentType)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	rec := serve("/v1/protect?owner=narrow", "",
		renderBody(t, codec.Binary, matrix.RandomDense(50, 4, rand.New(rand.NewSource(5))), 50))
	if rec.Code != http.StatusOK {
		t.Fatalf("fit: %d %s", rec.Code, rec.Body)
	}
	tok := token(t, rec.Result())
	wide := func(rows int) []byte {
		return renderBody(t, codec.Binary, matrix.NewDense(rows, 1<<16, nil), rows)
	}
	cases := []struct {
		name, url, token string
		body             []byte
	}{
		{"fit protect", "/v1/protect?owner=fresh1&format=binary", "", declaredFrameBody()},
		{"upload", "/v1/datasets?owner=fresh2&name=d&format=binary", "", declaredFrameBody()},
		{"stream protect, 1 wide row", "/v1/protect?owner=narrow&mode=stream&format=binary", tok, wide(1)},
		{"stream protect, 8 wide rows", "/v1/protect?owner=narrow&mode=stream&format=binary", tok, wide(8)},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := serve(tc.url, tc.token, tc.body)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", tc.name, rec.Code, rec.Body)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.2f MB allocated", tc.name, float64(alloc)/1e6)
		if alloc > 6<<20 {
			t.Fatalf("%s: %d B allocated for a %d B body, want under 6 MiB", tc.name, alloc, len(tc.body))
		}
	}
}
