package main

// Ring ingest benchmarks: the same multi-owner upload workload against
// a single node and a 3-node ring, so the ingest scaling the ring buys
// (or costs) can be read from one run. CI's bench smoke runs each once.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"ppclust/internal/dataset"
)

func benchCSV(tb testing.TB, rows int) string {
	tb.Helper()
	ds, err := dataset.SyntheticPatients(rows, 3, rand.New(rand.NewSource(42)))
	if err != nil {
		tb.Fatal(err)
	}
	ds = ds.DropIDs()
	ds.Labels = nil
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// benchHTTP keeps enough idle connections per host that the benchmark
// measures ingest, not TCP connection churn.
var benchHTTP = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
}}

func benchUpload(url, token, body string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := benchHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp, nil
}

// benchmarkRingIngest uploads datasets for three owners concurrently,
// each client talking to its owner's home node (the routing a
// ring-aware client performs), so a 3-node ring spreads the ingest
// across all three daemons while a single node absorbs all of it.
func benchmarkRingIngest(b *testing.B, nNodes int) {
	nodes := startRing(b, nNodes, 0, "")
	csvBody := benchCSV(b, 256)

	const nOwners = 3
	owners := make([]string, nOwners)
	tokens := make([]string, nOwners)
	homes := make([]*ringTestNode, nOwners)
	for i := range owners {
		homes[i] = nodes[i%len(nodes)]
		owners[i] = ownerHomedOn(b, nodes, homes[i].id, i*1000)
		resp, err := benchUpload(
			fmt.Sprintf("%s/v1/datasets?owner=%s&name=seed", homes[i].srv.URL, owners[i]), "", csvBody)
		if err != nil || resp.StatusCode != http.StatusCreated {
			b.Fatalf("seeding owner %s: %v (%v)", owners[i], err, resp)
		}
		tokens[i] = resp.Header.Get("X-Ppclust-Token")
	}

	b.SetBytes(int64(len(csvBody)))
	b.ResetTimer()
	var ctr int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := atomic.AddInt64(&ctr, 1)
			oi := int(i) % nOwners
			url := fmt.Sprintf("%s/v1/datasets?owner=%s&name=bench%d", homes[oi].srv.URL, owners[oi], i)
			resp, err := benchUpload(url, tokens[oi], csvBody)
			if err != nil {
				b.Errorf("upload: %v", err)
				return
			}
			if resp.StatusCode != http.StatusCreated {
				b.Errorf("upload: status %d", resp.StatusCode)
				return
			}
		}
	})
}

func BenchmarkRingIngest1Node(b *testing.B)  { benchmarkRingIngest(b, 1) }
func BenchmarkRingIngest3Nodes(b *testing.B) { benchmarkRingIngest(b, 3) }

// benchmarkRingJobs measures end-to-end clustering job throughput:
// submit a cluster job against a pre-seeded dataset, poll it to a
// terminal state and fetch the result. As with ingest, each owner's
// client targets its home node.
func benchmarkRingJobs(b *testing.B, nNodes int) {
	nodes := startRing(b, nNodes, 0, "")
	csvBody := benchCSV(b, 128)

	const nOwners = 3
	owners := make([]string, nOwners)
	tokens := make([]string, nOwners)
	homes := make([]*ringTestNode, nOwners)
	for i := range owners {
		homes[i] = nodes[i%len(nodes)]
		owners[i] = ownerHomedOn(b, nodes, homes[i].id, i*1000)
		resp, err := benchUpload(
			fmt.Sprintf("%s/v1/datasets?owner=%s&name=seed", homes[i].srv.URL, owners[i]), "", csvBody)
		if err != nil || resp.StatusCode != http.StatusCreated {
			b.Fatalf("seeding owner %s: %v (%v)", owners[i], err, resp)
		}
		tokens[i] = resp.Header.Get("X-Ppclust-Token")
	}

	benchJSON := func(method, url, token, body string, out any) (int, error) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return 0, err
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := benchHTTP.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, err
		}
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	b.ResetTimer()
	var ctr int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			oi := int(atomic.AddInt64(&ctr, 1)) % nOwners
			base, owner, token := homes[oi].srv.URL, owners[oi], tokens[oi]
			var st struct {
				ID    string `json:"id"`
				State string `json:"state"`
			}
			code, err := benchJSON(http.MethodPost,
				fmt.Sprintf("%s/v1/jobs?owner=%s", base, owner), token,
				`{"type":"cluster","dataset":"seed","k":3}`, &st)
			if err != nil || code != http.StatusAccepted {
				b.Errorf("submit: status %d, %v", code, err)
				return
			}
			for st.State != "done" && st.State != "failed" && st.State != "cancelled" {
				if code, err = benchJSON(http.MethodGet,
					fmt.Sprintf("%s/v1/jobs/%s?owner=%s", base, st.ID, owner), token, "", &st); err != nil || code != http.StatusOK {
					b.Errorf("poll: status %d, %v", code, err)
					return
				}
			}
			if st.State != "done" {
				b.Errorf("job %s ended %s", st.ID, st.State)
				return
			}
		}
	})
}

func BenchmarkRingJobs1Node(b *testing.B)  { benchmarkRingJobs(b, 1) }
func BenchmarkRingJobs3Nodes(b *testing.B) { benchmarkRingJobs(b, 3) }
