package main

// Integration tests for the federation subsystem over real HTTP, driven
// through the ppclient SDK: the 3-party acceptance flow (disjoint
// horizontal partitions, joint clustering equal to the plaintext union),
// owner isolation of contributions, lifecycle and auth edges, and
// drain/restart persistence of unsealed federations.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppclust/internal/cluster"
	"ppclust/internal/dataset"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/quality"
	"ppclust/internal/service"
	"ppclust/ppclient"
)

// fedTestData builds a well-separated blobs dataset and splits its rows
// into n disjoint interleaved partitions (each containing all clusters, so
// the coordinator's fit is representative). It returns the partitions, the
// union in party-concatenation order, and the matching labels.
func fedTestData(t *testing.T, rows, k, n int, seed int64) (parts [][][]float64, union *matrix.Dense, labels []int, names []string) {
	t.Helper()
	ds, err := dataset.WellSeparatedBlobs(rows, k, 4, 10, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	parts = make([][][]float64, n)
	var unionRows [][]float64
	for p := 0; p < n; p++ {
		for i := p; i < rows; i += n {
			parts[p] = append(parts[p], ds.Data.RawRow(i))
			unionRows = append(unionRows, ds.Data.RawRow(i))
			labels = append(labels, ds.Labels[i])
		}
	}
	return parts, matrix.FromRows(unionRows), labels, ds.Names
}

func fedClient(ts *httptest.Server, owner string) *ppclient.Client {
	return ppclient.New(ts.URL, owner)
}

// TestFederationThreePartyAcceptance is the integration acceptance
// criterion: three parties on one instance federate disjoint horizontal
// partitions of a datagen dataset; the sealed federation's
// federated-cluster result matches clustering the plaintext union
// (misclassification error 0 for well-separated data); and party A gets
// 403 / owner-isolated 404 when touching party B's contribution.
func TestFederationThreePartyAcceptance(t *testing.T) {
	ctx := context.Background()
	ts, _ := newJobsServer(t)
	parts, union, labels, names := fedTestData(t, 240, 3, 3, 11)

	coord := fedClient(ts, "hospital-a")
	fed, err := coord.CreateFederation(ctx, ppclient.FederationConfig{
		Name: "joint-study", Columns: names, Rho1: 0.3, Rho2: 0.3, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coord.Token == "" {
		t.Fatal("create must mint the coordinator's token")
	}
	if fed.State != "open" || fed.Coordinator != "hospital-a" {
		t.Fatalf("created = %+v", fed)
	}

	partyB := fedClient(ts, "hospital-b")
	partyC := fedClient(ts, "hospital-c")
	if _, err := partyB.JoinFederation(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := partyC.JoinFederation(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if partyB.Token == "" || partyC.Token == "" {
		t.Fatal("join must mint new parties' tokens")
	}

	// A party contributing before the coordinator froze the key is told
	// to wait, with 409.
	if _, err := partyB.Contribute(ctx, fed.ID, names, parts[1]); !ppclient.IsStatus(err, http.StatusConflict) {
		t.Fatalf("pre-freeze contribution: %v", err)
	}

	// The coordinator's contribution fits and freezes the shared key.
	fv, err := coord.Contribute(ctx, fed.ID, names, parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if fv.State != "frozen" || fv.Contributions != 1 || fv.RowsTotal != len(parts[0]) {
		t.Fatalf("after coordinator contribution: %+v", fv)
	}
	// Wrong column count is rejected.
	if _, err := partyB.Contribute(ctx, fed.ID, names[:3], truncCols(parts[1], 3)); !ppclient.IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("narrow contribution: %v", err)
	}
	if _, err := partyB.Contribute(ctx, fed.ID, names, parts[1]); err != nil {
		t.Fatal(err)
	}
	fv, err = partyC.Contribute(ctx, fed.ID, names, parts[2])
	if err != nil {
		t.Fatal(err)
	}
	if fv.Contributions != 3 || fv.RowsTotal != 240 {
		t.Fatalf("after all contributions: %+v", fv)
	}

	// Isolation: party B's contribution is its own dataset. Party A's
	// token against owner=hospital-b is 403; the dataset name inside
	// party A's own namespace was taken by A's contribution, so probe
	// with a party that withdrew: C withdraws, then C's own namespace
	// answers 404 for the name, while B's data stays B-only.
	contribName := "fed." + fed.ID
	if resp, _ := getJSON(t, ts.URL+"/v1/datasets/"+contribName+"/rows?owner=hospital-b", coord.Token, nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("A reads B's contribution rows: %d, want 403", resp.StatusCode)
	}
	if resp, _ := deleteReq(t, ts.URL+"/v1/datasets/"+contribName+"?owner=hospital-b", coord.Token); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("A deletes B's contribution: %d, want 403", resp.StatusCode)
	}
	if err := partyC.WithdrawContribution(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/datasets/"+contribName+"?owner=hospital-c", partyC.Token, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("withdrawn contribution still resolves: %d", resp.StatusCode)
	}
	// ...while B can still download its own protected rows via the SDK.
	if _, err := partyC.DownloadDataset(ctx, contribName); err == nil {
		t.Fatal("C downloading a withdrawn contribution must fail")
	}
	if body, err := partyB.DownloadDataset(ctx, contribName); err != nil || len(body) == 0 {
		t.Fatalf("B downloading its own contribution: %v", err)
	}
	if _, err := partyC.Contribute(ctx, fed.ID, names, parts[2]); err != nil {
		t.Fatal(err)
	}

	// A non-member cannot even see the federation: owner-isolated 404.
	stranger := fedClient(ts, "stranger")
	if _, err := stranger.JoinFederation(ctx, fed.ID); err != nil {
		t.Fatal(err) // join first so the owner exists...
	}
	// ...but a *different* federation ID stays invisible.
	if _, err := stranger.Federation(ctx, "f000000000000000000000ff"); !ppclient.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("stranger on unknown federation: %v", err)
	}

	// Non-coordinator seal is 403; result before seal is 409.
	if _, err := partyB.Seal(ctx, fed.ID, ppclient.Analysis{Algorithm: "kmeans", K: 3}); !ppclient.IsStatus(err, http.StatusForbidden) {
		t.Fatalf("party seal: %v", err)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/federations/"+fed.ID+"/result?owner=hospital-b", partyB.Token, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result: %d, want 409", resp.StatusCode)
	}

	sealed, err := coord.Seal(ctx, fed.ID, ppclient.Analysis{Algorithm: "kmeans", K: 3, ClustSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sealed.State != "sealed" || sealed.JobID == "" {
		t.Fatalf("sealed = %+v", sealed)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	res, err := coord.Result(wctx, fed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 240 || res.K != 3 || len(res.Parties) != 3 {
		t.Fatalf("result shape = k=%d parties=%d assignments=%d", res.K, len(res.Parties), len(res.Assignments))
	}
	// A k-means outcome carries its iteration count through the client.
	if res.Iterations < 1 {
		t.Fatalf("k-means result reports %d iterations", res.Iterations)
	}

	// The joint clustering over protected contributions matches
	// clustering the plaintext union: misclassification error 0.
	plain, err := (&cluster.KMeans{K: 3, Rand: rand.New(rand.NewSource(5)), Restarts: 4}).Cluster(union)
	if err != nil {
		t.Fatal(err)
	}
	misclass, err := quality.MisclassificationError(plain.Assignments, res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if misclass != 0 {
		t.Fatalf("federated vs plaintext union misclassification = %g, want 0", misclass)
	}
	// And both recover the ground truth exactly on well-separated blobs.
	vsTruth, err := quality.MisclassificationError(labels, res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if vsTruth != 0 {
		t.Fatalf("federated vs ground truth misclassification = %g, want 0", vsTruth)
	}

	// Every member can read the result; the coordinator's job also shows
	// up under its own jobs listing as federated-cluster.
	if resp, body := getJSON(t, ts.URL+"/v1/federations/"+fed.ID+"/result?owner=hospital-b", partyB.Token, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("member result fetch: %d: %s", resp.StatusCode, body)
	}
	var jlist []jobs.Status
	if resp, _ := getJSON(t, ts.URL+"/v1/jobs?owner=hospital-a", coord.Token, &jlist); resp.StatusCode != http.StatusOK || len(jlist) != 1 || jlist[0].Type != "federated-cluster" {
		t.Fatalf("coordinator job list = %+v", jlist)
	}
}

// truncCols narrows rows to their first n values.
func truncCols(rows [][]float64, n int) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = r[:n]
	}
	return out
}

// TestFederationSurvivesRestart is the drain/restart acceptance
// criterion: an unsealed federation persisted under -data-dir resumes
// with the same ID, joined parties and contributions after the daemon's
// stores are reopened, and can then run to completion.
func TestFederationSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	keysPath := filepath.Join(dir, "keys.json")
	dataDir := filepath.Join(dir, "data")
	fedDir := filepath.Join(dataDir, "_federations")

	boot := func() (*httptest.Server, *jobs.Manager) {
		keys, err := keyring.OpenFile(keysPath)
		if err != nil {
			t.Fatal(err)
		}
		store, err := datastore.OpenDir(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		feds, err := federation.Open(fedDir)
		if err != nil {
			t.Fatal(err)
		}
		mgr := jobs.New(jobs.Config{Workers: 2})
		s := newServer(engine.New(2, 1024), keys, store, mgr, feds)
		ts := httptest.NewServer(s.handler())
		return ts, mgr
	}

	parts, _, _, names := fedTestData(t, 90, 3, 3, 23)
	ts1, mgr1 := boot()
	coord := fedClient(ts1, "alpha")
	fed, err := coord.CreateFederation(ctx, ppclient.FederationConfig{Name: "resume", Columns: names, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	partyB := fedClient(ts1, "beta")
	if _, err := partyB.JoinFederation(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Contribute(ctx, fed.ID, names, parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := partyB.Contribute(ctx, fed.ID, names, parts[1]); err != nil {
		t.Fatal(err)
	}
	// SIGTERM-style shutdown: drain jobs, stop serving.
	mgr1.Close()
	ts1.Close()

	ts2, mgr2 := boot()
	defer mgr2.Close()
	defer ts2.Close()
	coord2 := fedClient(ts2, "alpha")
	coord2.Token = coord.Token
	got, err := coord2.Federation(ctx, fed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != fed.ID || got.State != "frozen" || len(got.Parties) != 2 || got.Contributions != 2 || got.RowsTotal != 60 {
		t.Fatalf("restored federation = %+v", got)
	}

	// The restored federation continues: a third party joins with a fresh
	// credential, contributes under the *same* frozen key, and the seal +
	// joint analysis completes.
	partyC := fedClient(ts2, "gamma")
	if _, err := partyC.JoinFederation(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := partyC.Contribute(ctx, fed.ID, names, parts[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := coord2.Seal(ctx, fed.ID, ppclient.Analysis{Algorithm: "kmeans", K: 3, ClustSeed: 1}); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	res, err := coord2.Result(wctx, fed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 90 {
		t.Fatalf("assignments = %d, want 90", len(res.Assignments))
	}
}

// TestFederationAuthEdges: tokenless and wrong-token access to federation
// routes, the 404 for unknown owners, and the two-contribution floor on
// seal.
func TestFederationAuthEdges(t *testing.T) {
	ctx := context.Background()
	ts, _ := newJobsServer(t)
	parts, _, _, names := fedTestData(t, 60, 2, 2, 31)

	coord := fedClient(ts, "org-a")
	fed, err := coord.CreateFederation(ctx, ppclient.FederationConfig{Name: "edges", Columns: names, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Known owner without token: 401 with a challenge.
	bare := fedClient(ts, "org-a")
	if _, err := bare.Federation(ctx, fed.ID); !ppclient.IsStatus(err, http.StatusUnauthorized) {
		t.Fatalf("tokenless get: %v", err)
	}
	// Wrong token (another owner's): 403.
	other := fedClient(ts, "org-b")
	if _, err := other.JoinFederation(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	impostor := fedClient(ts, "org-a")
	impostor.Token = other.Token
	if _, err := impostor.Federation(ctx, fed.ID); !ppclient.IsStatus(err, http.StatusForbidden) {
		t.Fatalf("wrong-token get: %v", err)
	}
	// Unknown owner on a member route: 404.
	ghost := fedClient(ts, "ghost")
	ghost.Token = other.Token
	if _, err := ghost.Federation(ctx, fed.ID); !ppclient.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown owner: %v", err)
	}
	// Duplicate join: 409.
	if _, err := other.JoinFederation(ctx, fed.ID); !ppclient.IsStatus(err, http.StatusConflict) {
		t.Fatalf("duplicate join: %v", err)
	}

	// Seal below the two-contribution floor: 409 even for the
	// coordinator, in both open and frozen states.
	if _, err := coord.Seal(ctx, fed.ID, ppclient.Analysis{K: 2}); !ppclient.IsStatus(err, http.StatusConflict) {
		t.Fatalf("seal while open: %v", err)
	}
	if _, err := coord.Contribute(ctx, fed.ID, names, parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Seal(ctx, fed.ID, ppclient.Analysis{K: 2}); !ppclient.IsStatus(err, http.StatusConflict) {
		t.Fatalf("seal with one contribution: %v", err)
	}
	// Bad analysis spec: 400.
	if _, err := other.Contribute(ctx, fed.ID, names, parts[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Seal(ctx, fed.ID, ppclient.Analysis{Algorithm: "quantum"}); !ppclient.IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("bad algorithm: %v", err)
	}

	// Deleting the federation removes the contributions with it.
	if err := coord.DeleteFederation(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/datasets/fed."+fed.ID+"?owner=org-a", coord.Token, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("contribution survived federation delete: %d", resp.StatusCode)
	}
	if _, err := coord.Federation(ctx, fed.ID); !ppclient.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("deleted federation still resolves: %v", err)
	}
}

// TestFederationMetrics: the per-federation gauges surface on
// /v1/metrics without leaking the federation ID (the join capability).
func TestFederationMetrics(t *testing.T) {
	ctx := context.Background()
	ts, _ := newJobsServer(t)
	parts, _, _, names := fedTestData(t, 40, 2, 2, 41)
	coord := fedClient(ts, "m-a")
	fed, err := coord.CreateFederation(ctx, ppclient.FederationConfig{Name: "metrics", Columns: names, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Contribute(ctx, fed.ID, names, parts[0]); err != nil {
		t.Fatal(err)
	}

	var snap map[string]int64
	if resp, body := getJSON(t, ts.URL+"/v1/metrics", "", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d: %s", resp.StatusCode, body)
	}
	if snap["federations_total"] != 1 || snap["federations_frozen"] != 1 {
		t.Fatalf("federation totals = %v", snap)
	}
	if snap["federation_rows_total"] != int64(len(parts[0])) {
		t.Fatalf("federation_rows_total = %d", snap["federation_rows_total"])
	}
	label := service.FedMetricLabel(fed.ID)
	if snap[fmt.Sprintf(`federation_parties{fed=%q}`, label)] != 1 {
		t.Fatalf("per-federation gauge missing: %v", snap)
	}
	for k := range snap {
		if strings.Contains(k, fed.ID) {
			t.Fatalf("metrics leak the federation ID in %q", k)
		}
	}
}

// TestFederationLostJobReschedule: a sealed federation whose joint job no
// longer exists (here: evicted by a retention of 1) transparently
// reschedules the stored analysis on the next result fetch instead of
// answering 404 forever.
func TestFederationLostJobReschedule(t *testing.T) {
	ctx := context.Background()
	mgr := jobs.New(jobs.Config{Workers: 2, Retention: 1})
	t.Cleanup(mgr.Close)
	s := newServer(engine.New(2, 1024), keyring.NewMemory(), datastore.NewMemory(), mgr, federation.NewMemory())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	parts, _, _, names := fedTestData(t, 60, 2, 2, 51)
	coord := fedClient(ts, "org-a")
	fed, err := coord.CreateFederation(ctx, ppclient.FederationConfig{Name: "lost", Columns: names, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	partyB := fedClient(ts, "org-b")
	if _, err := partyB.JoinFederation(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Contribute(ctx, fed.ID, names, parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := partyB.Contribute(ctx, fed.ID, names, parts[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Seal(ctx, fed.ID, ppclient.Analysis{Algorithm: "kmeans", K: 2, ClustSeed: 3}); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := coord.Result(wctx, fed.ID); err != nil {
		t.Fatal(err)
	}

	// Evict the finished federated-cluster job: with retention 1, the
	// next finished job for the coordinator pushes it out. The
	// coordinator's own contribution dataset serves as input.
	st := submitJob(t, ts, "org-a", coord.Token, map[string]any{
		"type": "cluster", "dataset": "fed." + fed.ID, "k": 2,
	})
	waitJob(t, ts, "org-a", coord.Token, st.ID)

	// The original job ID is gone; the result route reschedules and a
	// poll completes against the fresh job.
	res, err := coord.Result(wctx, fed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 60 || res.K != 2 {
		t.Fatalf("rescheduled result = k=%d assignments=%d", res.K, len(res.Assignments))
	}
	// The federation now points at a different job than the one sealed.
	got, err := coord.Federation(ctx, fed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobID == "" || got.State != "sealed" {
		t.Fatalf("after reschedule = %+v", got)
	}
}

// TestFederationReservedDatasetNamespace: the fed. dataset prefix cannot
// be created, deleted or targeted by protect jobs through the ordinary
// dataset routes — only the federation routes manage contributions.
func TestFederationReservedDatasetNamespace(t *testing.T) {
	ctx := context.Background()
	ts, _ := newJobsServer(t)
	parts, _, _, names := fedTestData(t, 40, 2, 2, 61)
	coord := fedClient(ts, "res-a")
	fed, err := coord.CreateFederation(ctx, ppclient.FederationConfig{Name: "res", Columns: names, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Contribute(ctx, fed.ID, names, parts[0]); err != nil {
		t.Fatal(err)
	}
	contrib := "fed." + fed.ID

	// Upload into the reserved namespace: 400.
	if resp, body := postAuth(t, ts.URL+"/v1/datasets?owner=res-a&name=fed.something", coord.Token, blobsCSV(t, 20, 2, 1)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reserved upload: %d: %s", resp.StatusCode, body)
	}
	// Direct delete of a contribution: 409 pointing at the withdraw route.
	if resp, body := deleteReq(t, ts.URL+"/v1/datasets/"+contrib+"?owner=res-a", coord.Token); resp.StatusCode != http.StatusConflict {
		t.Fatalf("reserved delete: %d: %s", resp.StatusCode, body)
	}
	// Protect job writing into the reserved namespace: 400.
	if resp, body := postAuth(t, ts.URL+"/v1/jobs?owner=res-a", coord.Token,
		`{"type":"protect","dataset":"`+contrib+`","dest":"fed.shadow"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reserved protect dest: %d: %s", resp.StatusCode, body)
	}
	// Reading a contribution through the dataset routes stays allowed.
	if _, err := coord.DownloadDataset(ctx, contrib); err != nil {
		t.Fatal(err)
	}
	// Withdraw through the federation route still works and removes it.
	if err := coord.WithdrawContribution(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.DownloadDataset(ctx, contrib); !ppclient.IsStatus(err, http.StatusNotFound) {
		t.Fatalf("withdrawn contribution: %v", err)
	}
}
