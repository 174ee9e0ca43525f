package main

// BenchmarkWireIngestProtect measures the served ingest-to-protect path
// end to end — HTTP body in, parsed rows through the streaming protector,
// protected release out — once per wire format over identical 20k x 8
// data. The columnar engine is the same in both; what the sub-benches
// compare is the wire: CSV pays float↔text conversion in both directions,
// the framed binary format moves the same values as raw little-endian
// float64 batches. CI runs it three times into BENCH_ppspeed.json, whose
// medians cmd/benchguard holds to the committed csv÷binary ratio.

import (
	"bytes"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"ppclust/internal/codec"
	"ppclust/internal/dataset"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/obs"
)

func BenchmarkWireIngestProtect(b *testing.B) {
	const rows, cols = 20_000, 8
	ds, err := dataset.SyntheticPatients(rows, 3, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	ds = ds.DropIDs()
	ds.Labels = nil
	// SyntheticPatients yields a fixed schema; widen to the benchmark
	// shape by tiling columns.
	base := ds.Data
	wide := matrix.NewDense(rows, cols, nil)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			wide.SetAt(r, c, base.At(r, c%base.Cols())+float64(c))
		}
	}
	names := make([]string, cols)
	for j := range names {
		names[j] = "a" + string(rune('0'+j))
	}

	var csvBuf bytes.Buffer
	wds, err := dataset.New(names, wide)
	if err != nil {
		b.Fatal(err)
	}
	if err := dataset.WriteCSV(&csvBuf, wds); err != nil {
		b.Fatal(err)
	}
	var binBuf bytes.Buffer
	bw := codec.NewWriter(&binBuf)
	if err := bw.WriteHeader(names, false); err != nil {
		b.Fatal(err)
	}
	if err := bw.WriteBatch(wide, nil); err != nil {
		b.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		b.Fatal(err)
	}

	mgr := jobs.New(jobs.Config{Workers: 2})
	b.Cleanup(mgr.Close)
	s := newServer(engine.New(0, 0), keyring.NewMemory(), datastore.NewMemory(), mgr, federation.NewMemory())
	// Request logs would interleave with the benchmark lines on CI and
	// break benchjson's line parsing.
	s.logger = obs.NewLogger(io.Discard, slog.LevelError)
	ts := httptest.NewServer(s.handler())
	b.Cleanup(ts.Close)
	// Fit once so every measured iteration is the steady-state stream.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/protect?owner=wire&seed=1", bytes.NewReader(csvBuf.Bytes()))
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("fit: %d", resp.StatusCode)
	}
	tok := resp.Header.Get("X-Ppclust-Token")

	run := func(b *testing.B, body []byte, contentType string) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/protect?owner=wire&mode=stream", bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			req.Header.Set("Authorization", "Bearer "+tok)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || n == 0 {
				b.Fatalf("stream: %d, %d bytes, %v", resp.StatusCode, n, err)
			}
		}
	}
	b.Run("csv", func(b *testing.B) { run(b, csvBuf.Bytes(), "text/csv") })
	b.Run("binary", func(b *testing.B) { run(b, binBuf.Bytes(), codec.ContentType) })
}
