package main

// Integration tests for the tune job type: the PR's acceptance criteria
// driven over real HTTP through the ppclient SDK — frontier
// non-domination, the paper's pure-RBT bound, the security-floor
// recommendation, prompt cancellation of a running sweep, and the tune
// metrics counters.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/jobs"
	"ppclust/ppclient"
)

// gaussianCSV renders an unlabeled Gaussian-mixture dataset.
func gaussianCSV(t *testing.T, m, k int, seed int64) string {
	t.Helper()
	ds, err := dataset.WellSeparatedBlobs(m, k, 4, 10, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ds.Labels = nil
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// tuneDominates mirrors the tuning package's dominance relation on the
// SDK's wire type, so the acceptance check is independent of the server's
// own frontier code.
func tuneDominates(p, q ppclient.TunePoint) bool {
	if p.Misclassification > q.Misclassification ||
		p.MinSecurity < q.MinSecurity ||
		p.ReidentRate > q.ReidentRate {
		return false
	}
	return p.Misclassification < q.Misclassification ||
		p.MinSecurity > q.MinSecurity ||
		p.ReidentRate < q.ReidentRate
}

// TestTuneJobAcceptance: a tune job over a Gaussian-mixture dataset
// returns a non-empty Pareto frontier with no dominated point; the
// recommended point satisfies the submitted Sec constraint; and the
// pure-RBT candidate reproduces the paper's bound (misclassification 0
// against the plaintext clustering) while scoring higher Sec than the
// weakest noise candidate.
func TestTuneJobAcceptance(t *testing.T) {
	ts, srv := newJobsServer(t)
	ctx := context.Background()

	cl := ppclient.New(ts.URL, "tuner")
	cl.PollInterval = 5 * time.Millisecond
	if _, err := cl.UploadDatasetCSV(ctx, "mixture", bytes.NewReader([]byte(gaussianCSV(t, 300, 3, 11))), false); err != nil {
		t.Fatal(err)
	}
	if cl.Token == "" {
		t.Fatal("upload minted no token")
	}

	const minSec = 0.3
	st, err := cl.SubmitTune(ctx, "mixture", ppclient.TuneSpec{
		Algorithm:  "kmeans",
		K:          3,
		Mechanisms: []string{"rbt", "additive", "multiplicative", "hybrid"},
		Rhos:       []float64{0.2, 0.4},
		Sigmas:     []float64{0.05, 0.3},
		Seed:       7,
		MinSec:     minSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.TuneResult(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}

	// 2 rbt + 2 additive + 2 multiplicative + 4 hybrid candidates.
	if res.Evaluated != 10 {
		t.Fatalf("evaluated %d candidates, want 10", res.Evaluated)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i, p := range res.Frontier {
		if p.Err != "" {
			t.Fatalf("failed point on frontier: %+v", p)
		}
		for j, q := range res.Frontier {
			if i != j && tuneDominates(q, p) {
				t.Fatalf("frontier point %s is dominated by %s", p.Describe, q.Describe)
			}
		}
	}

	if res.Recommended == nil {
		t.Fatalf("no recommended point: %s", res.RecommendNote)
	}
	if res.Recommended.MinSecurity < minSec {
		t.Fatalf("recommended %s has Sec %g < constraint %g",
			res.Recommended.Describe, res.Recommended.MinSecurity, minSec)
	}

	rbtSeen, noiseSeen := false, false
	var rbtWeakestSec, noiseWeakestSec float64
	for _, p := range res.Points {
		if p.Err != "" {
			continue
		}
		switch p.Mechanism {
		case "rbt":
			if p.Misclassification != 0 || p.FMeasure != 1 {
				t.Fatalf("pure RBT %s: misclassification %g, f-measure %g — Corollary 1 wants 0 and 1",
					p.Describe, p.Misclassification, p.FMeasure)
			}
			if !rbtSeen || p.MinSecurity < rbtWeakestSec {
				rbtWeakestSec = p.MinSecurity
			}
			rbtSeen = true
		case "additive", "multiplicative":
			if !noiseSeen || p.MinSecurity < noiseWeakestSec {
				noiseWeakestSec = p.MinSecurity
			}
			noiseSeen = true
		}
	}
	if !rbtSeen || !noiseSeen {
		t.Fatalf("sweep missing mechanism families: rbt=%v noise=%v", rbtSeen, noiseSeen)
	}
	if rbtWeakestSec <= noiseWeakestSec {
		t.Fatalf("rbt Sec %g should beat the weakest noise candidate's %g", rbtWeakestSec, noiseWeakestSec)
	}

	// The tune counters surfaced at /v1/metrics.
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if metrics["tune_candidates_evaluated_total"] != 10 {
		t.Fatalf("tune_candidates_evaluated_total = %d, want 10", metrics["tune_candidates_evaluated_total"])
	}
	if _, ok := metrics[`http_request_duration_us_count{route="POST /v1/jobs"}`]; !ok {
		t.Fatalf("no request-latency histogram in metrics: %v", metrics)
	}
	_ = srv
}

// TestTuneJobCancellation: deleting a running tune job stops candidate
// evaluation promptly and the job lands in state cancelled.
func TestTuneJobCancellation(t *testing.T) {
	ts, _ := newJobsServer(t)
	ctx := context.Background()

	cl := ppclient.New(ts.URL, "canceller")
	cl.PollInterval = 2 * time.Millisecond
	if _, err := cl.UploadDatasetCSV(ctx, "big", bytes.NewReader([]byte(gaussianCSV(t, 2500, 3, 5))), false); err != nil {
		t.Fatal(err)
	}
	// A deliberately wide hybrid grid: far more work than a test should
	// ever wait out, so finishing before the cancel would itself fail the
	// deadline below.
	st, err := cl.SubmitTune(ctx, "big", ppclient.TuneSpec{
		Algorithm: "kmeans",
		K:         3,
		Rhos:      []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45},
		Sigmas:    []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4},
		Refine:    2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the sweep is actually running, then cancel it.
	deadline := time.Now().Add(20 * time.Second)
	for {
		js, err := cl.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (state %s)", js.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancelled := time.Now()
	if _, err := cl.CancelJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitJob(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateCancelled {
		t.Fatalf("final state = %s (%s), want cancelled", final.State, final.Error)
	}
	if waited := time.Since(cancelled); waited > 15*time.Second {
		t.Fatalf("cancellation took %v", waited)
	}
	// A cancelled job has no result; the route says 200 with the status
	// carrying the story.
	if _, err := cl.JobResult(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTuneSpecValidation: sweep-spec failures surface synchronously as
// 400s at submission, not inside a worker.
func TestTuneSpecValidation(t *testing.T) {
	ts, _ := newJobsServer(t)
	csvBody := gaussianCSV(t, 60, 3, 2)
	_, tok := uploadDataset(t, ts, "val", "d", "", "", csvBody)

	bad := []map[string]any{
		{"type": "tune", "dataset": "d"},                                                           // kmeans needs k
		{"type": "tune", "dataset": "d", "k": 3, "mechanisms": []string{"swapping"}},               // unknown mechanism
		{"type": "tune", "dataset": "d", "k": 3, "rhos": []float64{2}},                             // rho out of range
		{"type": "tune", "dataset": "d", "k": 3, "sigmas": []float64{-0.5}},                        // bad sigma
		{"type": "tune", "dataset": "d", "k": 3, "known": 2},                                       // under column count
		{"type": "tune", "dataset": "d", "k": 3, "known": 1000},                                    // over row count
		{"type": "tune", "dataset": "d", "k": 3, "refine": 99},                                     // refine cap
		{"type": "tune", "dataset": "d", "k": 3, "min_sec": -1},                                    // negative floor
		{"type": "tune", "dataset": "d", "k": 3, "kmin": 2, "kmax": 5},                             // k-selection is a cluster job
		{"type": "tune", "dataset": "d", "k": 3, "norm": "median"},                                 // unknown norm
		{"type": "tune", "dataset": "missing", "k": 3},                                             // no such dataset (404)
		{"type": "tune", "dataset": "d", "k": 3, "algorithm": "dbscan"},                            // dbscan needs eps/min_pts
		{"type": "tune", "dataset": "d", "k": 3, "algorithm": "kmeans", "rhos": []float64{0, 0.2}}, // zero rho
	}
	for i, spec := range bad {
		raw := mustJSON(t, spec)
		resp, body := postAuth(t, ts.URL+"/v1/jobs?owner=val", tok, raw)
		want := http.StatusBadRequest
		if spec["dataset"] == "missing" {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Fatalf("case %d (%v): status %d, want %d: %s", i, spec, resp.StatusCode, want, body)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
