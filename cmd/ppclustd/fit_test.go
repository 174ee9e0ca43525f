package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"ppclust/internal/codec"
	"ppclust/internal/engine"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/service"
)

// renderBody encodes m in format with the server's own row writer, in
// blocks of frameRows rows (one batch frame each in binary).
func renderBody(t *testing.T, format string, m *matrix.Dense, frameRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw := newRowWriter(format, &buf)
	names := make([]string, m.Cols())
	for j := range names {
		names[j] = fmt.Sprintf("a%d", j)
	}
	if err := rw.WriteNames(names); err != nil {
		t.Fatal(err)
	}
	n := m.Cols()
	for lo := 0; lo < m.Rows(); lo += frameRows {
		hi := min(lo+frameRows, m.Rows())
		if err := rw.WriteBatch(matrix.NewDense(hi-lo, n, m.Raw()[lo*n:hi*n])); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBody parses a body in format with the server's own row reader.
func decodeBody(t *testing.T, format string, raw []byte) *matrix.Dense {
	t.Helper()
	m, err := service.ReadAll(newRowReader(format, bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("decoding %s body: %v", format, err)
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
		format    string
		frameRows int
	}{
		{formatBinary, 300}, {formatBinary, 70}, {formatCSV, 300}, {formatNDJSON, 300},
	}
	for i, tc := range cases {
		body := renderBody(t, tc.format, m, tc.frameRows)
		owner := fmt.Sprintf("inplace-%d", i)
		resp, got := postBinary(t, ts.URL+"/v1/protect?seed=5&format="+tc.format+"&owner="+owner, "", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s fit: %d %s", tc.format, resp.StatusCode, got)
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
			t.Fatalf("%s (%d-row frames): in-place release differs from a fresh release", tc.format, tc.frameRows)
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

// A 2000×32 binary fit allocates at most three times its body per
// request, in-process client included: the body is decoded once, released
// in place and written back frame by frame. The client reads each release
// into one reused buffer and checks its end frame.
func TestBinaryFitAllocations(t *testing.T) {
	s := newServerWith(t, engine.New(2, 0), keyring.NewMemory())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	body := renderBody(t, formatBinary, matrix.RandomDense(2000, 32, rand.New(rand.NewSource(3))), 2000)
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
	if perFit > 3*float64(len(body)) {
		t.Fatalf("a fit allocated %.0f B, want <= 3× its %d B body", perFit, len(body))
	}
}
