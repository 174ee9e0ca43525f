package main

// BenchmarkJobEndToEnd measures the full served job path — HTTP submit,
// queue, worker pool, cluster run, HTTP result fetch — the number the CI
// bench smoke tracks alongside the raw engine protect/recover timings.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/ppclient"
)

func BenchmarkJobEndToEnd(b *testing.B) {
	mgr := jobs.New(jobs.Config{Workers: 2, Retention: 8})
	defer mgr.Close()
	s := newServer(engine.New(0, 0), keyring.NewMemory(), datastore.NewMemory(), mgr, federation.NewMemory())
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	ds, err := dataset.WellSeparatedBlobs(2000, 3, 8, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	ds.Labels = nil
	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, ds); err != nil {
		b.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets?owner=bench&name=d", bytes.NewReader(csvBuf.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("upload: %d", resp.StatusCode)
	}
	tok := resp.Header.Get("X-Ppclust-Token")

	spec := []byte(`{"type":"cluster","dataset":"d","algorithm":"kmeans","k":3}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?owner=bench", bytes.NewReader(spec))
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		var st jobs.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: %d", resp.StatusCode)
		}
		for !st.State.Terminal() {
			time.Sleep(500 * time.Microsecond)
			sreq, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s?owner=bench", ts.URL, st.ID), nil)
			sreq.Header.Set("Authorization", "Bearer "+tok)
			sresp, err := http.DefaultClient.Do(sreq)
			if err != nil {
				b.Fatal(err)
			}
			if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
				b.Fatal(err)
			}
			sresp.Body.Close()
		}
		if st.State != jobs.StateDone {
			b.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
	}
}

// BenchmarkFederationEndToEnd measures the full served federation path —
// create, N parties join, contribute M-row partitions (coordinator fit +
// stream-protected parties), seal, joint kmeans, result fetch — through
// the ppclient SDK. CI's bench smoke runs it once.
func BenchmarkFederationEndToEnd(b *testing.B) {
	for _, shape := range []struct{ parties, rows int }{
		{3, 500},
		{3, 2000},
		{6, 1000},
	} {
		b.Run(fmt.Sprintf("parties=%d/rows=%d", shape.parties, shape.rows), func(b *testing.B) {
			mgr := jobs.New(jobs.Config{Workers: 2, Retention: 64})
			defer mgr.Close()
			s := newServer(engine.New(0, 0), keyring.NewMemory(), datastore.NewMemory(), mgr, federation.NewMemory())
			ts := httptest.NewServer(s.handler())
			defer ts.Close()

			total := shape.parties * shape.rows
			ds, err := dataset.WellSeparatedBlobs(total, 3, 8, 10, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			parts := make([][][]float64, shape.parties)
			for p := 0; p < shape.parties; p++ {
				for i := p; i < total; i += shape.parties {
					parts[p] = append(parts[p], ds.Data.RawRow(i))
				}
			}

			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clients := make([]*ppclient.Client, shape.parties)
				for p := range clients {
					clients[p] = ppclient.New(ts.URL, fmt.Sprintf("bench%d-p%d", i, p))
				}
				fed, err := clients[0].CreateFederation(ctx, ppclient.FederationConfig{
					Name: "bench", Columns: ds.Names, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				for p := 1; p < shape.parties; p++ {
					if _, err := clients[p].JoinFederation(ctx, fed.ID); err != nil {
						b.Fatal(err)
					}
				}
				for p := 0; p < shape.parties; p++ {
					if _, err := clients[p].Contribute(ctx, fed.ID, ds.Names, parts[p]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := clients[0].Seal(ctx, fed.ID, ppclient.Analysis{Algorithm: "kmeans", K: 3, ClustSeed: 1}); err != nil {
					b.Fatal(err)
				}
				wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
				res, err := clients[0].Result(wctx, fed.ID)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Assignments) != total {
					b.Fatalf("assignments = %d, want %d", len(res.Assignments), total)
				}
			}
			b.ReportMetric(float64(total), "rows/op")
		})
	}
}
