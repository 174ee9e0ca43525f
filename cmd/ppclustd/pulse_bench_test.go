package main

// pppulse benchmarks (CI runs each once):
//
//   - BenchmarkPulseSampler: the served stream-protect path with the
//     sampler off vs sampling every 100ms — the pair that proves
//     background sampling costs <5% on the hot path (the sampler runs
//     concurrently with the measured requests, which is exactly how it
//     taxes a live daemon);
//   - history-query and alert-eval microbenches live in internal/obs
//     (BenchmarkPulseHistoryQuery, BenchmarkAlertEval) and ride along in
//     the same CI step.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
)

func benchmarkPulsePath(b *testing.B, pulseOn bool) {
	mgr := jobs.New(jobs.Config{Workers: 2})
	defer mgr.Close()
	s := newServer(engine.New(0, 0), keyring.NewMemory(), datastore.NewMemory(), mgr, federation.NewMemory())
	if pulseOn {
		// 100ms is 100× the production default cadence, so the measured
		// overhead bounds the real one from far above.
		if err := s.setupPulse(pulseConfig{Interval: 100 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
		defer s.closePulse()
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

func BenchmarkPulseSampler(b *testing.B) {
	b.Run("pulse=off", func(b *testing.B) { benchmarkPulsePath(b, false) })
	b.Run("pulse=on", func(b *testing.B) { benchmarkPulsePath(b, true) })
}
