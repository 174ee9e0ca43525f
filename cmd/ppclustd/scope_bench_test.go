package main

// ppscope benchmarks (CI runs each once):
//
//   - BenchmarkTraceStore: the served stream-protect path with the trace
//     store disabled vs enabled at the default 10% sampling — the pair
//     that proves retention costs <5% on the hot path;
//   - BenchmarkClusterScrape: GET /v1/cluster/metrics on a live 3-node
//     ring (concurrent peer scrapes + merge).

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
)

func benchmarkProtectPath(b *testing.B, storeOn bool) {
	mgr := jobs.New(jobs.Config{Workers: 2})
	defer mgr.Close()
	s := newServer(engine.New(0, 0), keyring.NewMemory(), datastore.NewMemory(), mgr, federation.NewMemory())
	if storeOn {
		if err := s.setupScope(scopeConfig{TraceSample: 0.1}); err != nil {
			b.Fatal(err)
		}
	} else {
		s.traces = nil
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	fitCSV := benchCSV(b, 300)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/protect?owner=bench", bytes.NewReader([]byte(fitCSV)))
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

	body := []byte(benchCSV(b, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/protect?owner=bench&mode=stream", bytes.NewReader(body))
		req.Header.Set("Content-Type", "text/csv")
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("stream protect: %d", resp.StatusCode)
		}
	}
}

func BenchmarkTraceStore(b *testing.B) {
	b.Run("store=off", func(b *testing.B) { benchmarkProtectPath(b, false) })
	b.Run("store=on", func(b *testing.B) { benchmarkProtectPath(b, true) })
}

func BenchmarkClusterScrape(b *testing.B) {
	nodes := startRing(b, 3, 1, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(nodes[i%len(nodes)].addr + "/v1/cluster/metrics")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("cluster metrics: %d", resp.StatusCode)
		}
	}
}
