package main

// Integration tests for the datasets + jobs subsystem: upload → job →
// result over real HTTP, owner auth and isolation on the new routes, the
// paper-bound evaluate acceptance flow, multi-owner concurrency, and the
// drain/restore state files.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
)

// newJobsServer builds a server with a pool of exactly two job workers —
// the shape the concurrency acceptance test depends on.
func newJobsServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	mgr := jobs.New(jobs.Config{Workers: 2})
	t.Cleanup(mgr.Close)
	s := newServer(engine.New(2, 1024), keyring.NewMemory(), datastore.NewMemory(), mgr, federation.NewMemory())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// blobsCSV renders the datagen blobs dataset (with its ground-truth label
// column, as `datagen -labels` emits it) to CSV.
func blobsCSV(t *testing.T, m, k int, seed int64) string {
	t.Helper()
	ds, err := dataset.WellSeparatedBlobs(m, k, 4, 10, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// uploadDataset posts body as owner's named dataset and returns the
// response body and the (possibly empty) minted token.
func uploadDataset(t *testing.T, ts *httptest.Server, owner, name, token, query, body string) (string, string) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/datasets?owner=%s&name=%s%s", ts.URL, owner, name, query)
	resp, raw := postAuth(t, url, token, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s/%s: status %d: %s", owner, name, resp.StatusCode, raw)
	}
	return raw, resp.Header.Get("X-Ppclust-Token")
}

// submitJob posts spec and returns the accepted job status.
func submitJob(t *testing.T, ts *httptest.Server, owner, token string, spec map[string]any) jobs.Status {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postAuth(t, ts.URL+"/v1/jobs?owner="+owner, token, string(raw))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %v: status %d: %s", spec, resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != jobs.StateQueued {
		t.Fatalf("submitted status = %+v", st)
	}
	return st
}

func getJSON(t *testing.T, url, token string, out any) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("parsing %s: %v\n%s", url, err, buf.String())
		}
	}
	return resp, buf.String()
}

// waitJob polls the status route until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, owner, token, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st jobs.Status
		resp, body := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?owner=%s", ts.URL, id, owner), token, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status: %d: %s", resp.StatusCode, body)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Status{}
}

// jobResult fetches and decodes a finished job's result payload.
func jobResult(t *testing.T, ts *httptest.Server, owner, token, id string, out any) {
	t.Helper()
	var wrapper struct {
		Status jobs.Status     `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	resp, body := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s/result?owner=%s", ts.URL, id, owner), token, &wrapper)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, body)
	}
	if wrapper.Status.State != jobs.StateDone {
		t.Fatalf("result status = %+v (%s)", wrapper.Status, wrapper.Status.Error)
	}
	if err := json.Unmarshal(wrapper.Result, out); err != nil {
		t.Fatalf("parsing result: %v\n%s", err, wrapper.Result)
	}
}

// TestDatasetLifecycle: upload with labels mints a token; metadata, row
// download, listing and deletion all work under that token.
func TestDatasetLifecycle(t *testing.T) {
	ts, _ := newJobsServer(t)
	csvBody := blobsCSV(t, 60, 3, 1)

	body, tok := uploadDataset(t, ts, "alice", "blobs", "", "&labels=last", csvBody)
	if tok == "" {
		t.Fatal("first upload must mint the owner token")
	}
	var meta datastore.Meta
	if err := json.Unmarshal([]byte(body), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Rows != 60 || meta.Cols != 4 || !meta.Labeled {
		t.Fatalf("meta = %+v", meta)
	}

	// Second upload for the same owner needs the token and must not mint
	// a new one.
	if _, tok2 := uploadDataset(t, ts, "alice", "blobs2", tok, "", blobsCSV(t, 30, 2, 2)); tok2 != "" {
		t.Fatal("second upload minted a fresh token")
	}
	// Duplicate name: 409.
	if resp, body := postAuth(t, ts.URL+"/v1/datasets?owner=alice&name=blobs", tok, csvBody); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate upload: %d: %s", resp.StatusCode, body)
	}

	var metas []datastore.Meta
	if resp, _ := getJSON(t, ts.URL+"/v1/datasets?owner=alice", tok, &metas); resp.StatusCode != http.StatusOK || len(metas) != 2 {
		t.Fatalf("list = %v", metas)
	}
	var one datastore.Meta
	if resp, _ := getJSON(t, ts.URL+"/v1/datasets/blobs?owner=alice", tok, &one); resp.StatusCode != http.StatusOK || one.Rows != 60 {
		t.Fatalf("get = %+v", one)
	}

	// Row download round-trips the data (labels stay inside the service).
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/blobs/rows?owner=alice", nil)
	req.Header.Set("Authorization", "Bearer "+tok)
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(rresp.Body)
	rresp.Body.Close()
	rows := parseCSVBody(t, buf.String())
	if rows.Rows() != 60 || rows.Cols() != 4 {
		t.Fatalf("downloaded %dx%d", rows.Rows(), rows.Cols())
	}

	resp3, body := deleteReq(t, ts.URL+"/v1/datasets/blobs2?owner=alice", tok)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d: %s", resp3.StatusCode, body)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/datasets/blobs2?owner=alice", tok, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted dataset still resolves: %d", resp.StatusCode)
	}
}

// TestDatasetUploadThenProtectSharesCredential: an owner born from a
// dataset upload keeps the same bearer token across its first protect fit
// (no second mint), closing the loop between the two creation paths.
func TestDatasetUploadThenProtectSharesCredential(t *testing.T) {
	ts, _ := newJobsServer(t)
	_, tok := uploadDataset(t, ts, "carol", "d", "", "", blobsCSV(t, 40, 2, 3))

	csvBody, orig := testCSV(t, 80, 4)
	resp, rel := postAuth(t, ts.URL+"/v1/protect?owner=carol&seed=5", tok, csvBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect for upload-born owner: %d: %s", resp.StatusCode, rel)
	}
	if resp.Header.Get("X-Ppclust-Token") != "" {
		t.Fatal("protect minted a second token for an owner that already has one")
	}
	if resp.Header.Get("X-Ppclust-Key-Version") != "1" {
		t.Fatalf("version = %q", resp.Header.Get("X-Ppclust-Key-Version"))
	}
	// And without the token the fit is refused outright.
	if resp, _ := post(t, ts.URL+"/v1/protect?owner=carol", csvBody); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless protect for credentialed owner: %d", resp.StatusCode)
	}
	resp, rec := postAuth(t, ts.URL+"/v1/recover?owner=carol", tok, rel)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: %d", resp.StatusCode)
	}
	if !matrix.EqualApprox(parseCSVBody(t, rec), orig, 1e-6) {
		t.Fatal("recover under upload-born credential diverged")
	}
}

// TestJobsAuthAndIsolation is the auth satellite: 401 without a token,
// 403 with another owner's token, and cross-owner invisibility of both
// datasets and jobs (read and cancel).
func TestJobsAuthAndIsolation(t *testing.T) {
	ts, _ := newJobsServer(t)
	_, tokA := uploadDataset(t, ts, "alice", "d", "", "", blobsCSV(t, 60, 3, 1))
	_, tokB := uploadDataset(t, ts, "bob", "d", "", "", blobsCSV(t, 60, 3, 2))
	jobA := submitJob(t, ts, "alice", tokA, map[string]any{"type": "cluster", "dataset": "d", "k": 3})
	waitJob(t, ts, "alice", tokA, jobA.ID)

	t.Run("401 without token", func(t *testing.T) {
		for _, url := range []string{
			"/v1/datasets?owner=alice",
			"/v1/datasets/d?owner=alice",
			"/v1/datasets/d/rows?owner=alice",
			"/v1/jobs?owner=alice",
			"/v1/jobs/" + jobA.ID + "?owner=alice",
			"/v1/jobs/" + jobA.ID + "/result?owner=alice",
		} {
			resp, _ := getJSON(t, ts.URL+url, "", nil)
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s: %d, want 401", url, resp.StatusCode)
			}
			if resp.Header.Get("WWW-Authenticate") == "" {
				t.Errorf("%s: 401 without WWW-Authenticate", url)
			}
		}
		if resp, _ := postAuth(t, ts.URL+"/v1/jobs?owner=alice", "", `{"type":"cluster","dataset":"d","k":3}`); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("submit: %d, want 401", resp.StatusCode)
		}
	})

	t.Run("403 with another owner's token", func(t *testing.T) {
		for _, url := range []string{
			"/v1/datasets?owner=alice",
			"/v1/jobs?owner=alice",
			"/v1/jobs/" + jobA.ID + "?owner=alice",
		} {
			resp, _ := getJSON(t, ts.URL+url, tokB, nil)
			if resp.StatusCode != http.StatusForbidden {
				t.Errorf("%s with bob's token: %d, want 403", url, resp.StatusCode)
			}
		}
		if resp, _ := postAuth(t, ts.URL+"/v1/jobs?owner=alice", tokB, `{"type":"cluster","dataset":"d","k":3}`); resp.StatusCode != http.StatusForbidden {
			t.Errorf("submit with bob's token: %d, want 403", resp.StatusCode)
		}
	})

	t.Run("cross-owner isolation", func(t *testing.T) {
		// Bob, correctly authenticated as bob, cannot see or touch
		// alice's job or dataset — 404, indistinguishable from absent.
		if resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+jobA.ID+"?owner=bob", tokB, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("bob reads alice's job: %d, want 404", resp.StatusCode)
		}
		if resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+jobA.ID+"/result?owner=bob", tokB, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("bob reads alice's result: %d, want 404", resp.StatusCode)
		}
		if resp, _ := deleteReq(t, ts.URL+"/v1/jobs/"+jobA.ID+"?owner=bob", tokB); resp.StatusCode != http.StatusNotFound {
			t.Errorf("bob cancels alice's job: %d, want 404", resp.StatusCode)
		}
		// Bob's own job against alice's dataset name resolves inside
		// bob's namespace only.
		if resp, body := postAuth(t, ts.URL+"/v1/jobs?owner=bob", tokB, `{"type":"cluster","dataset":"nope","k":3}`); resp.StatusCode != http.StatusNotFound {
			t.Errorf("job over missing dataset: %d: %s", resp.StatusCode, body)
		}
		// Unknown owner on the job and dataset routes is 404 (nothing to
		// claim there).
		if resp, _ := getJSON(t, ts.URL+"/v1/jobs?owner=ghost", tokB, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown owner job list: %d, want 404", resp.StatusCode)
		}
		if resp, _ := getJSON(t, ts.URL+"/v1/datasets?owner=ghost", tokB, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown owner dataset list: %d, want 404", resp.StatusCode)
		}
	})
}

// TestEvaluateJobMatchesPaperBound is the acceptance flow: an evaluate
// job over a datagen dataset must report misclassification error within
// the paper-expected bound (zero — the isometry preserves every partition,
// the claim internal/experiments asserts for the same algorithms).
func TestEvaluateJobMatchesPaperBound(t *testing.T) {
	ts, _ := newJobsServer(t)
	_, tok := uploadDataset(t, ts, "alice", "blobs", "", "&labels=last", blobsCSV(t, 200, 3, 7))

	for _, alg := range []map[string]any{
		{"algorithm": "kmeans", "k": 3},
		{"algorithm": "hierarchical", "k": 3, "linkage": "average"},
	} {
		spec := map[string]any{"type": "evaluate", "dataset": "blobs", "rho1": 0.3, "rho2": 0.3, "seed": 11}
		for k, v := range alg {
			spec[k] = v
		}
		st := submitJob(t, ts, "alice", tok, spec)
		if got := waitJob(t, ts, "alice", tok, st.ID); got.State != jobs.StateDone {
			t.Fatalf("%v: state %s: %s", alg, got.State, got.Error)
		}
		var ev struct {
			Algorithm         string  `json:"algorithm"`
			Misclassification float64 `json:"misclassification"`
			FMeasure          float64 `json:"f_measure"`
			SamePartition     bool    `json:"same_partition"`
			VsLabels          *struct {
				OriginalMisclassification  float64 `json:"original_misclassification"`
				ProtectedMisclassification float64 `json:"protected_misclassification"`
			} `json:"vs_labels"`
		}
		jobResult(t, ts, "alice", tok, st.ID, &ev)
		// The bound asserted in internal/experiments for RBT: exactly
		// zero misclassification at any privacy level.
		if ev.Misclassification > 0 {
			t.Fatalf("%s: misclassification %g exceeds the paper bound 0", ev.Algorithm, ev.Misclassification)
		}
		if ev.FMeasure != 1 || !ev.SamePartition {
			t.Fatalf("%s: f-measure %g, same=%v", ev.Algorithm, ev.FMeasure, ev.SamePartition)
		}
		// Ground truth rode along from the labeled upload, and the
		// protected partition matches it exactly as well as the original.
		if ev.VsLabels == nil {
			t.Fatalf("%s: no ground-truth agreement in result", ev.Algorithm)
		}
		if ev.VsLabels.OriginalMisclassification != ev.VsLabels.ProtectedMisclassification {
			t.Fatalf("%s: protection changed ground-truth agreement: %+v", ev.Algorithm, ev.VsLabels)
		}
	}
}

// TestProtectJobAndClusterProtected: a protect job materializes the
// release as a dataset and stores the key; clustering with silhouette
// k-selection finds the same K on the protected data as on the original,
// and the downloaded release recovers to the original via /v1/recover.
func TestProtectJobAndClusterProtected(t *testing.T) {
	ts, _ := newJobsServer(t)
	csvBody := blobsCSV(t, 150, 3, 9)
	_, tok := uploadDataset(t, ts, "alice", "raw", "", "&labels=last", csvBody)

	st := submitJob(t, ts, "alice", tok, map[string]any{
		"type": "protect", "dataset": "raw", "dest": "released", "rho1": 0.3, "rho2": 0.3, "seed": 4,
	})
	if got := waitJob(t, ts, "alice", tok, st.ID); got.State != jobs.StateDone {
		t.Fatalf("protect job: %s: %s", got.State, got.Error)
	}
	var pres struct {
		Dataset    string `json:"dataset"`
		Rows       int    `json:"rows"`
		KeyVersion int    `json:"key_version"`
	}
	jobResult(t, ts, "alice", tok, st.ID, &pres)
	if pres.Dataset != "released" || pres.Rows != 150 || pres.KeyVersion != 1 {
		t.Fatalf("protect result = %+v", pres)
	}

	// Model selection agrees across raw and released data.
	kOf := func(name string) int {
		st := submitJob(t, ts, "alice", tok, map[string]any{
			"type": "cluster", "dataset": name, "kmin": 2, "kmax": 6,
		})
		if got := waitJob(t, ts, "alice", tok, st.ID); got.State != jobs.StateDone {
			t.Fatalf("cluster %s: %s: %s", name, got.State, got.Error)
		}
		var out struct {
			K       int             `json:"k"`
			KScores map[int]float64 `json:"k_scores"`
		}
		jobResult(t, ts, "alice", tok, st.ID, &out)
		if len(out.KScores) != 5 {
			t.Fatalf("cluster %s: scores %v", name, out.KScores)
		}
		return out.K
	}
	if kRaw, kRel := kOf("raw"), kOf("released"); kRaw != 3 || kRel != 3 {
		t.Fatalf("selected k: raw %d, released %d, want 3", kRaw, kRel)
	}

	// The released rows leave the service and invert under the stored key.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/released/rows?owner=alice", nil)
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rresp, rec := postAuth(t, ts.URL+"/v1/recover?owner=alice", tok, buf.String())
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("recover: %d: %s", rresp.StatusCode, rec)
	}
	ds, err := dataset.ReadCSV(strings.NewReader(csvBody), func() dataset.CSVOptions {
		o := dataset.DefaultCSVOptions()
		o.LabelColumn = 4
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(parseCSVBody(t, rec), ds.Data, 1e-6) {
		t.Fatal("released dataset did not recover to the original")
	}
}

// TestConcurrentOwnersAndQueuedThird is the concurrency acceptance
// criterion: with a two-worker pool, long cluster jobs from two different
// owners run and make progress simultaneously while a third queued job
// reports `queued`; cancelling it works without touching the running two.
func TestConcurrentOwnersAndQueuedThird(t *testing.T) {
	ts, _ := newJobsServer(t)
	// Big enough that the sweep takes real time per candidate: k-means's
	// eight restarts per candidate dominate it.
	_, tokA := uploadDataset(t, ts, "alice", "d", "", "", blobsCSV(t, 1400, 3, 1))
	_, tokB := uploadDataset(t, ts, "bob", "d", "", "", blobsCSV(t, 1400, 3, 2))

	sweep := map[string]any{"type": "cluster", "dataset": "d", "kmin": 2, "kmax": 10}
	jobA := submitJob(t, ts, "alice", tokA, sweep)
	jobB := submitJob(t, ts, "bob", tokB, sweep)
	jobC := submitJob(t, ts, "alice", tokA, map[string]any{"type": "cluster", "dataset": "d", "k": 3})

	// Poll until both long jobs are observably running with progress while
	// the third still reports queued — all through the HTTP API.
	deadline := time.Now().Add(20 * time.Second)
	observed := false
	for time.Now().Before(deadline) {
		var a, b, c jobs.Status
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?owner=alice", ts.URL, jobA.ID), tokA, &a)
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?owner=bob", ts.URL, jobB.ID), tokB, &b)
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?owner=alice", ts.URL, jobC.ID), tokA, &c)
		if a.State == jobs.StateRunning && b.State == jobs.StateRunning &&
			a.Progress > 0 && b.Progress > 0 && c.State == jobs.StateQueued {
			observed = true
			break
		}
		if a.State.Terminal() && b.State.Terminal() {
			t.Fatalf("both jobs finished before concurrency was observable (a=%+v b=%+v)", a, b)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !observed {
		t.Fatal("never observed two owners running simultaneously with a third queued")
	}

	// The queued third job cancels cleanly while the pool is busy. (On a
	// machine where a worker freed up and ran the small job to completion
	// between the observation and this request, the cancel correctly
	// answers 409 instead.)
	resp, body := deleteReq(t, ts.URL+"/v1/jobs/"+jobC.ID+"?owner=alice", tokA)
	t.Logf("cancel of the queued third job: %d", resp.StatusCode)
	switch resp.StatusCode {
	case http.StatusOK:
		var cSt jobs.Status
		if err := json.Unmarshal([]byte(body), &cSt); err != nil || cSt.State != jobs.StateCancelled {
			t.Fatalf("cancelled status = %s (%v)", body, err)
		}
	case http.StatusConflict:
	default:
		t.Fatalf("cancel queued: %d: %s", resp.StatusCode, body)
	}
	// And the two long jobs still complete with identical selections —
	// the same data under different owners picks the same K.
	a := waitJob(t, ts, "alice", tokA, jobA.ID)
	b := waitJob(t, ts, "bob", tokB, jobB.ID)
	if a.State != jobs.StateDone || b.State != jobs.StateDone {
		t.Fatalf("long jobs: a=%s b=%s", a.State, b.State)
	}
}

// TestCancelRunningJobHTTP: DELETE on a running sweep stops it between
// candidates.
func TestCancelRunningJobHTTP(t *testing.T) {
	ts, _ := newJobsServer(t)
	_, tok := uploadDataset(t, ts, "alice", "d", "", "", blobsCSV(t, 900, 3, 5))
	st := submitJob(t, ts, "alice", tok, map[string]any{"type": "cluster", "dataset": "d", "kmin": 2, "kmax": 9})

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var s jobs.Status
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?owner=alice", ts.URL, st.ID), tok, &s)
		if s.State == jobs.StateRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The sweep may already have finished on a fast machine; then DELETE
	// correctly answers 409 and the job stays done.
	if resp, body := deleteReq(t, ts.URL+"/v1/jobs/"+st.ID+"?owner=alice", tok); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel running: %d: %s", resp.StatusCode, body)
	}
	final := waitJob(t, ts, "alice", tok, st.ID)
	t.Logf("final state: %s", final.State)
	if final.State != jobs.StateCancelled && final.State != jobs.StateDone {
		t.Fatalf("after cancel: %s (%s)", final.State, final.Error)
	}
	// Results of a cancelled job are a 409, not a 500.
	if final.State == jobs.StateCancelled {
		if resp, _ := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s/result?owner=alice", ts.URL, st.ID), tok, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("result of cancelled job: %d", resp.StatusCode)
		}
	}
}

// TestJobSpecValidation: bad submissions fail synchronously with 400.
func TestJobSpecValidation(t *testing.T) {
	ts, _ := newJobsServer(t)
	_, tok := uploadDataset(t, ts, "alice", "d", "", "", blobsCSV(t, 40, 2, 6))
	for name, spec := range map[string]string{
		"unknown type":      `{"type":"transmogrify","dataset":"d"}`,
		"missing dataset":   `{"type":"cluster","k":3}`,
		"audit no release":  `{"type":"audit","dataset":"d"}`,
		"audit bad known":   `{"type":"audit","dataset":"d","release":"d","known":1}`,
		"bad algorithm":     `{"type":"cluster","dataset":"d","algorithm":"quantum","k":3}`,
		"kmeans without k":  `{"type":"cluster","dataset":"d"}`,
		"bad sweep range":   `{"type":"cluster","dataset":"d","kmin":5,"kmax":2}`,
		"sweep non-kmeans":  `{"type":"cluster","dataset":"d","algorithm":"dbscan","kmin":2,"kmax":4}`,
		"protect no dest":   `{"type":"protect","dataset":"d"}`,
		"bad norm":          `{"type":"protect","dataset":"d","dest":"x","norm":"fourier"}`,
		"evaluate sweep":    `{"type":"evaluate","dataset":"d","kmin":2,"kmax":4}`,
		"dbscan bad eps":    `{"type":"cluster","dataset":"d","algorithm":"dbscan","min_pts":3}`,
		"unknown field":     `{"type":"cluster","dataset":"d","k":3,"frobnicate":1}`,
		"hierarchical link": `{"type":"cluster","dataset":"d","algorithm":"hierarchical","k":2,"linkage":"webbed"}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, body := postAuth(t, ts.URL+"/v1/jobs?owner=alice", tok, spec)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
		})
	}
	// Live-state conflicts: fetching the result of a still-queued or
	// running job is 409. A long sweep keeps the window comfortably open.
	_, _ = uploadDataset(t, ts, "alice", "big", tok, "", blobsCSV(t, 1200, 3, 7))
	big := submitJob(t, ts, "alice", tok, map[string]any{"type": "cluster", "dataset": "big", "kmin": 2, "kmax": 9})
	if resp, _ := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s/result?owner=alice", ts.URL, big.ID), tok, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result fetch: %d, want 409", resp.StatusCode)
	}
	waitJob(t, ts, "alice", tok, big.ID)
}

// TestMetricsEndpoint: the counters satellite — request, row and job
// counters all surface on /v1/metrics.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newJobsServer(t)
	csvBody, _ := testCSV(t, 120, 12)
	resp, _ := post(t, ts.URL+"/v1/protect?owner=erin", csvBody)
	tok := token(t, resp)
	_, _ = uploadDataset(t, ts, "erin", "d", tok, "", blobsCSV(t, 50, 2, 8))
	st := submitJob(t, ts, "erin", tok, map[string]any{"type": "cluster", "dataset": "d", "k": 2})
	waitJob(t, ts, "erin", tok, st.ID)

	var snap map[string]int64
	if resp, body := getJSON(t, ts.URL+"/v1/metrics", "", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d: %s", resp.StatusCode, body)
	}
	if snap["rows_protected_total"] != 120 {
		t.Fatalf("rows_protected_total = %d, want 120", snap["rows_protected_total"])
	}
	if snap["rows_ingested_total"] != 50 {
		t.Fatalf("rows_ingested_total = %d, want 50", snap["rows_ingested_total"])
	}
	if snap["jobs_submitted_total"] != 1 || snap["jobs_completed_total"] != 1 {
		t.Fatalf("job counters = %v", snap)
	}
	if snap["job_workers"] != 2 || snap["engine_workers"] != 2 {
		t.Fatalf("worker gauges = %v", snap)
	}
	if snap[`http_requests_total{route="POST /v1/protect",status="200"}`] < 1 {
		t.Fatalf("request counter missing: %v", snap)
	}
	if snap[`http_requests_total{route="POST /v1/jobs",status="202"}`] < 1 {
		t.Fatalf("job submit counter missing: %v", snap)
	}
}

// TestQueuedJobStateFiles: the drain satellite's persistence halves —
// persistQueuedJobs writes an atomic 0600 snapshot, restoreQueuedJobs
// resubmits and consumes it, and an empty drain clears stale state.
func TestQueuedJobStateFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queued-jobs.json")
	queued := []jobs.QueuedJob{
		{ID: "j1", Owner: "alice", Type: "cluster", Spec: json.RawMessage(`{"k":3}`), CreatedAt: time.Now().UTC()},
		{ID: "j2", Owner: "bob", Type: "protect", Spec: json.RawMessage(`{}`), CreatedAt: time.Now().UTC()},
	}
	if err := persistQueuedJobs(path, queued); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("state file mode = %v, want 0600", fi.Mode().Perm())
	}

	mgr := jobs.New(jobs.Config{Workers: 1})
	defer mgr.Close()
	ran := make(chan string, 2)
	for _, typ := range []string{"cluster", "protect"} {
		mgr.Register(typ, func(ctx context.Context, task *jobs.Task) (any, error) {
			ran <- task.ID
			return nil, nil
		})
	}
	n, err := restoreQueuedJobs(mgr, path)
	if err != nil || n != 2 {
		t.Fatalf("restore = %d, %v", n, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("restore must consume the state file")
	}
	got := map[string]bool{<-ran: true, <-ran: true}
	if !got["j1"] || !got["j2"] {
		t.Fatalf("restored jobs ran = %v", got)
	}

	// An empty drain removes stale state so old jobs cannot resurrect.
	if err := persistQueuedJobs(path, queued); err != nil {
		t.Fatal(err)
	}
	if err := persistQueuedJobs(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("empty persist must remove stale state")
	}
}

func deleteReq(t *testing.T, url, token string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.String()
}

// TestAuditJob is the audit satellite's positive test (the type that used
// to be this suite's unknown-type fixture): protect a dataset, then audit
// the stored release. The paper's per-attribute security measures come
// back positive, and the known-sample re-identification attack — the
// mechanism's documented weakness — recovers the release essentially
// exactly, which the audit must report honestly.
func TestAuditJob(t *testing.T) {
	ts, _ := newJobsServer(t)
	_, tok := uploadDataset(t, ts, "alice", "raw", "", "&labels=last", blobsCSV(t, 120, 3, 13))

	st := submitJob(t, ts, "alice", tok, map[string]any{
		"type": "protect", "dataset": "raw", "dest": "released", "seed": 6,
	})
	if got := waitJob(t, ts, "alice", tok, st.ID); got.State != jobs.StateDone {
		t.Fatalf("protect job: %s: %s", got.State, got.Error)
	}

	st = submitJob(t, ts, "alice", tok, map[string]any{
		"type": "audit", "dataset": "raw", "release": "released", "seed": 3,
	})
	if got := waitJob(t, ts, "alice", tok, st.ID); got.State != jobs.StateDone {
		t.Fatalf("audit job: %s: %s", got.State, got.Error)
	}
	var audit struct {
		Dataset    string `json:"dataset"`
		Release    string `json:"release"`
		KeyVersion int    `json:"key_version"`
		Rows       int    `json:"rows"`
		Cols       int    `json:"cols"`
		Attributes []struct {
			Name           string  `json:"name"`
			ScaleInvariant float64 `json:"scale_invariant"`
		} `json:"attributes"`
		MinSecurity float64 `json:"min_security"`
		Attack      *struct {
			KnownRecords int     `json:"known_records"`
			RMSE         float64 `json:"rmse"`
			WithinTol    float64 `json:"within_tol"`
			Broken       bool    `json:"broken"`
		} `json:"attack"`
		AttackError string `json:"attack_error"`
	}
	jobResult(t, ts, "alice", tok, st.ID, &audit)
	if audit.KeyVersion != 1 || audit.Rows != 120 || audit.Cols != 4 {
		t.Fatalf("audit header = %+v", audit)
	}
	if len(audit.Attributes) != 4 {
		t.Fatalf("attributes = %d, want 4", len(audit.Attributes))
	}
	// Rotated attributes carry real distortion: the weakest link is still
	// strictly positive.
	if !(audit.MinSecurity > 0) {
		t.Fatalf("min_security = %g, want > 0", audit.MinSecurity)
	}
	// The known-sample adversary with cols known rows breaks RBT: the
	// audit reports near-exact recovery.
	if audit.Attack == nil {
		t.Fatalf("no attack result (attack_error = %q)", audit.AttackError)
	}
	if audit.Attack.KnownRecords != 4 {
		t.Fatalf("known_records = %d, want cols", audit.Attack.KnownRecords)
	}
	if !audit.Attack.Broken || audit.Attack.WithinTol < 0.99 || audit.Attack.RMSE > 1e-6 {
		t.Fatalf("attack = %+v, want essentially exact recovery", audit.Attack)
	}

	// Auditing an older key version after a rotation still aligns the
	// spaces correctly.
	st = submitJob(t, ts, "alice", tok, map[string]any{
		"type": "protect", "dataset": "raw", "dest": "released2", "seed": 7,
	})
	waitJob(t, ts, "alice", tok, st.ID)
	st = submitJob(t, ts, "alice", tok, map[string]any{
		"type": "audit", "dataset": "raw", "release": "released", "key_version": 1,
	})
	if got := waitJob(t, ts, "alice", tok, st.ID); got.State != jobs.StateDone {
		t.Fatalf("versioned audit: %s: %s", got.State, got.Error)
	}
	jobResult(t, ts, "alice", tok, st.ID, &audit)
	if audit.KeyVersion != 1 || audit.Attack == nil || !audit.Attack.Broken {
		t.Fatalf("versioned audit = %+v", audit)
	}
}
