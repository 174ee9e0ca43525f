package service

// The service layer driven fully in-process — no HTTP, no sockets: the
// same upload → protect-job → evaluate flow examples/embedded ships, plus
// the sentinel-error contract every transport builds its envelope on.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ppclust/internal/core"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
)

func newTestServices(t *testing.T) *Services {
	t.Helper()
	mgr := jobs.New(jobs.Config{Workers: 2})
	t.Cleanup(mgr.Close)
	return New(Config{
		Engine:      engine.New(2, 1024),
		Keys:        keyring.NewMemory(),
		Store:       datastore.NewMemory(),
		Jobs:        mgr,
		Federations: federation.NewMemory(),
	})
}

// blobs builds three well-separated clusters.
func blobs(rows int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	centers := [][]float64{{0, 0, 0}, {10, 10, 10}, {-10, 5, -5}}
	out := make([][]float64, rows)
	for i := range out {
		c := centers[i%3]
		out[i] = []float64{
			c[0] + rng.NormFloat64()*0.3,
			c[1] + rng.NormFloat64()*0.3,
			c[2] + rng.NormFloat64()*0.3,
		}
	}
	return out
}

func waitJob(t *testing.T, svc *Services, owner, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := svc.Jobs.Get(owner, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEmbeddedUploadProtectEvaluate is the acceptance flow: the services
// drive upload → protect job → evaluate job entirely in-process.
func TestEmbeddedUploadProtectEvaluate(t *testing.T) {
	svc := newTestServices(t)
	cols := []string{"x", "y", "z"}
	rows := blobs(120)

	up, err := svc.Datasets.Upload(context.Background(), UploadRequest{Owner: "clinic", Name: "patients", Claim: true},
		&SliceRows{Columns: cols, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	if up.MintedToken == "" {
		t.Fatal("first upload must mint a credential")
	}
	if up.Meta.Rows != 120 || up.Meta.Cols != 3 {
		t.Fatalf("meta = %+v", up.Meta)
	}
	// The claim authenticates like any transport credential would.
	if err := svc.Authorize("clinic", up.MintedToken); err != nil {
		t.Fatalf("minted token does not authorize: %v", err)
	}
	if err := svc.Authorize("clinic", "wrong"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("wrong token: %v", err)
	}
	if err := svc.Authorize("clinic", ""); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("missing token: %v", err)
	}

	st, err := svc.Jobs.Submit(context.Background(), "clinic", &JobSpec{
		Type: JobProtect, Dataset: "patients", Dest: "released", Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitJob(t, svc, "clinic", st.ID); fin.State != jobs.StateDone {
		t.Fatalf("protect job: %s: %s", fin.State, fin.Error)
	}
	res, _, err := svc.Jobs.Result("clinic", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m := res.(map[string]any); m["dataset"] != "released" || m["key_version"].(int) != 1 {
		t.Fatalf("protect result = %+v", m)
	}
	if meta, err := svc.Datasets.Get("clinic", "released"); err != nil || meta.Rows != 120 {
		t.Fatalf("release meta = %+v, %v", meta, err)
	}

	st, err = svc.Jobs.Submit(context.Background(), "clinic", &JobSpec{
		Type: JobEvaluate, Dataset: "patients", K: 3, Seed: 5, ClustSeed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitJob(t, svc, "clinic", st.ID); fin.State != jobs.StateDone {
		t.Fatalf("evaluate job: %s: %s", fin.State, fin.Error)
	}
	res, _, err = svc.Jobs.Result("clinic", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ev := res.(*Evaluation)
	// Corollary 1: the release clusters identically to the normalized
	// original.
	if !ev.SamePartition || ev.Misclassification != 0 || ev.FMeasure != 1 {
		t.Fatalf("evaluation = %+v", ev)
	}
}

// TestFederationFitInPlace: the coordinator's contribution is released
// into its own decoded rows, and the stored contribution is bit for bit
// a fresh Protect release of the same rows at the same seed, over
// several engine blocks.
func TestFederationFitInPlace(t *testing.T) {
	svc := newTestServices(t)
	cols := []string{"x", "y", "z"}
	rows := blobs(2500)
	v, err := svc.Federations.Create("coord", CreateFederationSpec{Name: "inplace", Columns: cols, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Federations.Contribute(v.ID, "coord", &SliceRows{Columns: cols, Rows: rows}); err != nil {
		t.Fatal(err)
	}
	ds, err := svc.Datasets.Open("coord", ContributionDataset(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(2, 1024).Protect(matrix.FromRows(rows), engine.ProtectOptions{
		Normalization: engine.NormZScore,
		Thresholds:    []core.PST{{Rho1: 0.3, Rho2: 0.3}},
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Raw(), want.Released.Raw()
	if len(g) != len(w) {
		t.Fatalf("stored %d values, fresh release has %d", len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("value %d: stored %v, fresh release %v", i, g[i], w[i])
		}
	}
}

// TestErrorClassification: every failure carries exactly one sentinel and
// maps to the right wire code.
func TestErrorClassification(t *testing.T) {
	svc := newTestServices(t)
	up, err := svc.Datasets.Upload(context.Background(), UploadRequest{Owner: "o1", Name: "d", Claim: true},
		&SliceRows{Columns: []string{"a", "b"}, Rows: [][]float64{{1, 2}, {3, 4}, {5, 6}}})
	if err != nil {
		t.Fatal(err)
	}
	_ = up

	cases := []struct {
		name     string
		err      error
		sentinel error
		code     string
	}{
		{"missing dataset", errOf(svc.Datasets.Get("o1", "ghost")), ErrNotFound, CodeNotFound},
		{"duplicate upload", errOnly(svc.Datasets.Upload(context.Background(), UploadRequest{Owner: "o1", Name: "d"},
			&SliceRows{Columns: []string{"a", "b"}, Rows: [][]float64{{1, 2}}})), ErrConflict, CodeConflict},
		{"reserved fed prefix", errOnly(svc.Datasets.Upload(context.Background(), UploadRequest{Owner: "o1", Name: "fed.x"},
			&SliceRows{Columns: []string{"a"}, Rows: [][]float64{{1}}})), ErrInvalid, CodeInvalid},
		{"bad owner name", errOnly(svc.Datasets.Upload(context.Background(), UploadRequest{Owner: "no/pe", Name: "d2"},
			&SliceRows{Columns: []string{"a"}, Rows: [][]float64{{1}}})), ErrInvalid, CodeInvalid},
		{"bad job spec", errOf2(svc.Jobs.Submit(context.Background(), "o1", &JobSpec{Type: "warp", Dataset: "d"})), ErrInvalid, CodeInvalid},
		{"foreign job id", errOf3(svc.Jobs.Result("o1", "jdeadbeef")), ErrNotFound, CodeNotFound},
		{"unknown federation", errOf4(svc.Federations.Get("fnope", "o1")), ErrNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("expected an error")
			}
			if !errors.Is(tc.err, tc.sentinel) {
				t.Fatalf("err %v does not wrap %v", tc.err, tc.sentinel)
			}
			if got := Code(tc.err); got != tc.code {
				t.Fatalf("Code(%v) = %q, want %q", tc.err, got, tc.code)
			}
		})
	}

	// The chain keeps the domain error visible for embedding callers.
	if _, err := svc.Datasets.Get("o1", "ghost"); !errors.Is(err, datastore.ErrNotFound) {
		t.Fatalf("domain error lost from chain: %v", err)
	}
}

// TestDrainClassifiesAsDraining: submissions against a draining manager
// carry ErrDraining (the transport's 503).
func TestDrainClassifiesAsDraining(t *testing.T) {
	mgr := jobs.New(jobs.Config{Workers: 1})
	svc := New(Config{
		Engine:      engine.New(1, 1024),
		Keys:        keyring.NewMemory(),
		Store:       datastore.NewMemory(),
		Jobs:        mgr,
		Federations: federation.NewMemory(),
	})
	if _, err := svc.Datasets.Upload(context.Background(), UploadRequest{Owner: "o", Name: "d"},
		&SliceRows{Columns: []string{"a"}, Rows: [][]float64{{1}, {2}}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Jobs.Submit(context.Background(), "o", &JobSpec{Type: JobCluster, Dataset: "d", K: 1})
	if !errors.Is(err, ErrDraining) || Code(err) != CodeDraining {
		t.Fatalf("drain submit: %v (code %q)", err, Code(err))
	}
}

// TestTuneServiceInProcess: the tune sweep runs synchronously through the
// service without a job in between.
func TestTuneServiceInProcess(t *testing.T) {
	svc := newTestServices(t)
	if _, err := svc.Datasets.Upload(context.Background(), UploadRequest{Owner: "o", Name: "d"},
		&SliceRows{Columns: []string{"x", "y", "z"}, Rows: blobs(90)}); err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{Type: JobTune, Dataset: "d", K: 3,
		Mechanisms: []string{"rbt"}, Rhos: []float64{0.2, 0.4}, Seed: 3}
	meta, err := svc.Datasets.Get("o", "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Tune.Validate(spec, meta); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Tune.Run(context.Background(), "o", spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 2 || len(res.Frontier) == 0 {
		t.Fatalf("tune result: evaluated=%d frontier=%d", res.Evaluated, len(res.Frontier))
	}
}

// TestUploadLabeledBatches: an upload reads its rows in 4 096-row
// batches through one pooled buffer. 9 000 labels=last rows, three
// batches and two datastore blocks, read back as the values and labels
// sent.
func TestUploadLabeledBatches(t *testing.T) {
	svc := newTestServices(t)
	rows := blobs(9000)
	sent := make([][]float64, len(rows))
	for i, r := range rows {
		sent[i] = append(append([]float64(nil), r...), float64(i%3-1))
	}
	up, err := svc.Datasets.Upload(context.Background(), UploadRequest{Owner: "o", Name: "d", LabeledLast: true},
		&SliceRows{Columns: []string{"x", "y", "z", "label"}, Rows: sent})
	if err != nil {
		t.Fatal(err)
	}
	if m := up.Meta; m.Rows != 9000 || m.Cols != 3 || !m.Labeled || !slices.Equal(m.Attrs, []string{"x", "y", "z"}) {
		t.Fatalf("meta = %+v", m)
	}
	ds, err := svc.Datasets.Open("o", "d")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	labels := ds.Labels()
	for i, r := range rows {
		for j, v := range r {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(v) {
				t.Fatalf("row %d col %d = %v, sent %v", i, j, got.At(i, j), v)
			}
		}
		if labels[i] != i%3-1 {
			t.Fatalf("row %d label = %d, sent %d", i, labels[i], i%3-1)
		}
	}
}

func errOf(_ datastore.Meta, err error) error      { return err }
func errOnly(_ UploadResult, err error) error      { return err }
func errOf2(_ jobs.Status, err error) error        { return err }
func errOf3(_ any, _ jobs.Status, err error) error { return err }
func errOf4(_ federation.View, err error) error    { return err }

// TestSnapshotRaceSafety pins the create-race invariants the snapshot
// threading exists for: a stale "owner unknown" snapshot must lose with
// a conflict once the owner has been created — never rotate the new
// owner's key (FitProtect) or write into its namespace (Upload).
func TestSnapshotRaceSafety(t *testing.T) {
	svc := newTestServices(t)

	// Simulate the race: the transport snapshots an unknown owner...
	st, err := svc.Keys.State("victim")
	if err != nil || st.HasKey || st.HasCred {
		t.Fatalf("state = %+v, %v", st, err)
	}
	// ...then the owner is created concurrently (its first fit).
	m, err := ReadAll(&SliceRows{Columns: []string{"x", "y", "z"}, Rows: blobs(60)})
	if err != nil {
		t.Fatal(err)
	}
	win, err := svc.Keys.FitProtect(context.Background(), "victim", OwnerState{}, m, testProtectOptions())
	if err != nil {
		t.Fatal(err)
	}
	if win.MintedToken == "" || win.KeyVersion != 1 {
		t.Fatalf("creation fit = %+v", win)
	}
	// The stale-snapshot fit must now fail with a conflict, not rotate.
	if _, err := svc.Keys.FitProtect(context.Background(), "victim", st, m, testProtectOptions()); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale-snapshot fit: %v, want conflict", err)
	}
	if cur, _ := svc.Keys.State("victim"); !cur.HasKey {
		t.Fatal("victim lost its key")
	}

	// Same for uploads: a stale Claim against a now-known owner conflicts
	// instead of landing a dataset in the namespace unauthenticated.
	res, err := svc.Datasets.Upload(context.Background(), UploadRequest{Owner: "victim", Name: "planted", Claim: true},
		&SliceRows{Columns: []string{"a"}, Rows: [][]float64{{1}, {2}}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale-claim upload: %v, want conflict", err)
	}
	if res.MintedToken != "" {
		t.Fatal("losing claim must not mint a token")
	}
	if _, err := svc.Datasets.Get("victim", "planted"); !errors.Is(err, ErrNotFound) {
		t.Fatal("dataset landed in the victim's namespace")
	}
}

func testProtectOptions() engine.ProtectOptions {
	return engine.ProtectOptions{
		Normalization: engine.NormZScore,
		Thresholds:    []core.PST{{Rho1: 0.3, Rho2: 0.3}},
		Seed:          4,
	}
}
