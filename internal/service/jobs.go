package service

// JobService: the async analytics workload. Submission validates the
// typed spec synchronously (so clients get invalid-spec errors at submit
// time, not from a failed worker), and the runners for every job type —
// protect, cluster, evaluate, audit, tune, federated-cluster — live here,
// executing against the datastore, keyring and engine.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ppclust/internal/cluster"
	"ppclust/internal/core"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/jobs"
	"ppclust/internal/matrix"
	"ppclust/internal/obs"
	"ppclust/internal/quality"
)

// Job type names.
const (
	JobProtect  = "protect"
	JobCluster  = "cluster"
	JobEvaluate = "evaluate"
	JobAudit    = "audit"
	JobTune     = "tune"
	// JobFederatedCluster is scheduled by a federation seal, never by a
	// direct submission (Submit rejects it); it is registered so drained
	// seals can be resubmitted at startup.
	JobFederatedCluster = "federated-cluster"
)

// JobSpec is the submission body shared by all job types; each runner
// reads the fields its type defines.
type JobSpec struct {
	Type    string `json:"type"`
	Dataset string `json:"dataset"`

	// protect + evaluate: transform parameters.
	Norm string  `json:"norm,omitempty"`
	Rho1 float64 `json:"rho1,omitempty"`
	Rho2 float64 `json:"rho2,omitempty"`
	Seed int64   `json:"seed,omitempty"`
	// protect: destination dataset name for the release.
	Dest string `json:"dest,omitempty"`

	// cluster + evaluate: algorithm selection.
	Algorithm string  `json:"algorithm,omitempty"`
	K         int     `json:"k,omitempty"`
	KMin      int     `json:"kmin,omitempty"`
	KMax      int     `json:"kmax,omitempty"`
	Linkage   string  `json:"linkage,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
	MinPts    int     `json:"min_pts,omitempty"`
	Sigma     float64 `json:"sigma,omitempty"`
	ClustSeed int64   `json:"cluster_seed,omitempty"`

	// audit + tune: the number of known records the simulated adversary
	// holds (0 = column count). Release and KeyVersion are audit-only.
	Release    string `json:"release,omitempty"`
	KeyVersion int    `json:"key_version,omitempty"`
	Known      int    `json:"known,omitempty"`

	// tune: the sweep grid and the recommendation constraint (tune.go).
	Mechanisms []string  `json:"mechanisms,omitempty"`
	Rhos       []float64 `json:"rhos,omitempty"`
	Sigmas     []float64 `json:"sigmas,omitempty"`
	MinSec     float64   `json:"min_sec,omitempty"`
	Refine     int       `json:"refine,omitempty"`
}

// JobService submits, tracks and executes async jobs.
type JobService struct {
	c    *deps
	keys *KeyService
	tune *TuneService
	feds *FederationService
}

// register installs every job runner on the manager.
func (j *JobService) register() {
	j.c.mgr.Register(JobProtect, j.runProtect)
	j.c.mgr.Register(JobCluster, j.runCluster)
	j.c.mgr.Register(JobEvaluate, j.runEvaluate)
	j.c.mgr.Register(JobAudit, j.runAudit)
	j.c.mgr.Register(JobTune, j.runTune)
	j.c.mgr.Register(JobFederatedCluster, j.feds.runFederatedCluster)
}

// Submit validates spec and queues it for owner. The trace ID carried by
// ctx (if any) is attached to the job, so the submitting request, the
// queued record and the worker's span tree share one ID.
func (j *JobService) Submit(ctx context.Context, owner string, spec *JobSpec) (jobs.Status, error) {
	if err := j.validate(owner, spec); err != nil {
		return jobs.Status{}, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return jobs.Status{}, classify(err)
	}
	st, err := j.c.mgr.SubmitTraced(owner, spec.Type, raw, obs.TraceID(ctx))
	return st, classify(err)
}

// List returns owner's jobs, newest first.
func (j *JobService) List(owner string) []jobs.Status { return j.c.mgr.List(owner) }

// Get returns the status of owner's job id.
func (j *JobService) Get(owner, id string) (jobs.Status, error) {
	st, err := j.c.mgr.Get(owner, id)
	return st, classify(err)
}

// Cancel stops owner's queued or running job id.
func (j *JobService) Cancel(owner, id string) (jobs.Status, error) {
	st, err := j.c.mgr.Cancel(owner, id)
	return st, classify(err)
}

// Result returns the result of owner's finished job id; ErrConflict
// (wrapping jobs.ErrNotTerminal) while it is still in flight.
func (j *JobService) Result(owner, id string) (any, jobs.Status, error) {
	res, st, err := j.c.mgr.Result(owner, id)
	return res, st, classify(err)
}

// validate rejects what would only fail later inside a worker, so
// submission errors surface synchronously.
func (j *JobService) validate(owner string, spec *JobSpec) error {
	if spec.Dataset == "" {
		return Invalid(fmt.Errorf("%w: missing dataset", errBadJob))
	}
	ds, err := j.c.st.Get(owner, spec.Dataset)
	if err != nil {
		return classify(err)
	}
	switch spec.Type {
	case JobProtect:
		if spec.Dest == "" {
			return Invalid(fmt.Errorf("%w: protect needs dest (name for the released dataset)", errBadJob))
		}
		if err := datastore.ValidName(spec.Dest); err != nil {
			return classify(err)
		}
		if IsFederationDataset(spec.Dest) {
			return Invalid(fmt.Errorf("%w: dest %q — the fed. prefix is reserved for federation contributions", errBadJob, spec.Dest))
		}
		if _, err := normKind(spec.Norm); err != nil {
			return err
		}
	case JobCluster:
		if spec.KMin != 0 || spec.KMax != 0 {
			if spec.Algorithm != "" && spec.Algorithm != "kmeans" {
				return Invalid(fmt.Errorf("%w: k-selection sweeps use kmeans, not %q", errBadJob, spec.Algorithm))
			}
			if spec.KMin < 2 || spec.KMax < spec.KMin || spec.KMax > ds.Rows {
				return Invalid(fmt.Errorf("%w: bad sweep range [%d, %d] for %d rows", errBadJob, spec.KMin, spec.KMax, ds.Rows))
			}
			return nil
		}
		_, err := buildClusterer(spec)
		return err
	case JobEvaluate:
		if _, err := normKind(spec.Norm); err != nil {
			return err
		}
		if spec.KMin != 0 || spec.KMax != 0 {
			return Invalid(fmt.Errorf("%w: evaluate compares one algorithm; k-selection is a cluster job", errBadJob))
		}
		_, err := buildClusterer(spec)
		return err
	case JobAudit:
		return j.validateAudit(owner, spec, ds)
	case JobTune:
		return j.tune.Validate(spec, ds.Meta)
	default:
		return Invalid(fmt.Errorf("%w: unknown type %q (want protect, cluster, evaluate, audit or tune)", errBadJob, spec.Type))
	}
	return nil
}

// normKind maps the wire normalization name onto the engine's.
func normKind(norm string) (string, error) {
	switch norm {
	case "", "zscore":
		return engine.NormZScore, nil
	case "minmax":
		return engine.NormMinMax, nil
	default:
		return "", Invalid(fmt.Errorf("%w: unknown norm %q (want zscore or minmax)", errBadJob, norm))
	}
}

// protectOptions assembles engine options from a spec's transform fields.
func protectOptions(spec *JobSpec) (engine.ProtectOptions, error) {
	norm, err := normKind(spec.Norm)
	if err != nil {
		return engine.ProtectOptions{}, err
	}
	rho1, rho2 := spec.Rho1, spec.Rho2
	if rho1 == 0 {
		rho1 = 0.3
	}
	if rho2 == 0 {
		rho2 = 0.3
	}
	return engine.ProtectOptions{
		Normalization: norm,
		Thresholds:    []core.PST{{Rho1: rho1, Rho2: rho2}},
		Seed:          spec.Seed,
	}, nil
}

// newClusterRand seeds an algorithm's tie-breaking/init randomness.
func newClusterRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// buildClusterer constructs the algorithm a cluster or evaluate spec
// names.
func buildClusterer(spec *JobSpec) (cluster.Clusterer, error) {
	seed := spec.ClustSeed
	if seed == 0 {
		seed = 1
	}
	switch spec.Algorithm {
	case "", "kmeans":
		if spec.K < 1 {
			return nil, Invalid(fmt.Errorf("%w: kmeans needs k >= 1", errBadJob))
		}
		return &cluster.KMeans{K: spec.K, Rand: newClusterRand(seed), Restarts: 4}, nil
	case "kmedoids":
		if spec.K < 1 {
			return nil, Invalid(fmt.Errorf("%w: kmedoids needs k >= 1", errBadJob))
		}
		return &cluster.KMedoids{K: spec.K, Rand: newClusterRand(seed)}, nil
	case "hierarchical":
		if spec.K < 1 {
			return nil, Invalid(fmt.Errorf("%w: hierarchical needs k >= 1", errBadJob))
		}
		link, err := linkageKind(spec.Linkage)
		if err != nil {
			return nil, err
		}
		return &cluster.Hierarchical{K: spec.K, Linkage: link}, nil
	case "dbscan":
		if spec.Eps <= 0 || spec.MinPts < 1 {
			return nil, Invalid(fmt.Errorf("%w: dbscan needs eps > 0 and min_pts >= 1", errBadJob))
		}
		return &cluster.DBSCAN{Eps: spec.Eps, MinPts: spec.MinPts}, nil
	case "spectral":
		if spec.K < 1 {
			return nil, Invalid(fmt.Errorf("%w: spectral needs k >= 1", errBadJob))
		}
		return &cluster.Spectral{K: spec.K, Sigma: spec.Sigma, Rand: newClusterRand(seed)}, nil
	default:
		return nil, Invalid(fmt.Errorf("%w: unknown algorithm %q", errBadJob, spec.Algorithm))
	}
}

func linkageKind(name string) (cluster.Linkage, error) {
	switch name {
	case "", "average":
		return cluster.AverageLinkage, nil
	case "single":
		return cluster.SingleLinkage, nil
	case "complete":
		return cluster.CompleteLinkage, nil
	case "ward":
		return cluster.WardLinkage, nil
	default:
		return 0, Invalid(fmt.Errorf("%w: unknown linkage %q", errBadJob, name))
	}
}

// runProtect fits a fresh key over the stored dataset, stores the secret
// as a new key version for the owner, and stores the release as a new
// dataset.
func (j *JobService) runProtect(ctx context.Context, t *jobs.Task) (any, error) {
	var spec JobSpec
	if err := json.Unmarshal(t.Spec, &spec); err != nil {
		return nil, err
	}
	_, getSpan := obs.Start(ctx, "store.get")
	ds, err := j.c.st.Get(t.Owner, spec.Dataset)
	if err != nil {
		getSpan.End()
		return nil, err
	}
	opts, err := protectOptions(&spec)
	if err != nil {
		getSpan.End()
		return nil, err
	}
	data, err := ds.Matrix()
	getSpan.End()
	if err != nil {
		return nil, err
	}
	t.SetProgress(0.1)
	res, err := j.c.eng.ProtectCtx(ctx, data, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.SetProgress(0.7)

	// The release lands in the store before the key lands in the keyring:
	// appending the key version first would repoint the owner's *current*
	// key at a release that failed to materialize (dest taken, disk
	// error), and a later version-less recover would then silently
	// decrypt older releases with the wrong key. A key failure after the
	// dataset is stored rolls the dataset back instead.
	_, putSpan := obs.Start(ctx, "store.put")
	defer putSpan.End()
	b, err := datastore.NewBuilder(t.Owner, spec.Dest, ds.Attrs)
	if err != nil {
		return nil, err
	}
	labels := ds.Labels()
	for i := 0; i < res.Released.Rows(); i++ {
		if labels != nil {
			err = b.AppendLabeled(res.Released.RawRow(i), labels[i])
		} else {
			err = b.Append(res.Released.RawRow(i))
		}
		if err != nil {
			return nil, err
		}
	}
	out, err := b.Finish(time.Now())
	if err != nil {
		return nil, err
	}
	if err := j.c.st.Put(out); err != nil {
		return nil, err
	}
	putSpan.End()
	_, keySpan := obs.Start(ctx, "keyring.put")
	defer keySpan.End()
	entry, err := j.c.keys.Put(t.Owner, fromEngineSecret(res.Secret()))
	if err != nil {
		if derr := j.c.st.Delete(t.Owner, spec.Dest); derr != nil {
			err = fmt.Errorf("%w (and removing orphaned release %q: %v)", err, spec.Dest, derr)
		}
		return nil, err
	}
	j.c.rowsProtected.Add(int64(out.Rows))
	j.c.replicate(ReplicationEvent{Kind: ReplicateDataset, Owner: t.Owner, Dataset: spec.Dest})
	j.c.replicate(ReplicationEvent{Kind: ReplicateOwner, Owner: t.Owner})
	return map[string]any{
		"dataset":     spec.Dest,
		"rows":        out.Rows,
		"cols":        out.Cols,
		"key_version": entry.Version,
		"pairs":       len(res.Key.Pairs),
	}, nil
}

// ClusterOutcome is the cluster job's result, and the clustering half
// of the federated-cluster job's (FedOutcome). KScores is set only by a
// k-selection sweep.
type ClusterOutcome struct {
	Algorithm   string          `json:"algorithm"`
	K           int             `json:"k"`
	Assignments []int           `json:"assignments"`
	Inertia     float64         `json:"inertia,omitempty"`
	Iterations  int             `json:"iterations,omitempty"`
	Converged   bool            `json:"converged"`
	Silhouette  *float64        `json:"silhouette,omitempty"`
	KScores     map[int]float64 `json:"k_scores,omitempty"`
}

func newClusterOutcome(algorithm string, res *cluster.Result) ClusterOutcome {
	return ClusterOutcome{
		Algorithm:   algorithm,
		K:           res.K,
		Assignments: res.Assignments,
		Inertia:     res.Inertia,
		Iterations:  res.Iterations,
		Converged:   res.Converged,
	}
}

// clusterOutcome partitions data with c and scores the partition's
// silhouette: the fixed-k cluster job's step, and the federated-cluster
// job's over the joint release.
func clusterOutcome(ctx context.Context, t *jobs.Task, c cluster.Clusterer, data *matrix.Dense) (ClusterOutcome, error) {
	res, err := c.Cluster(data)
	if err != nil {
		return ClusterOutcome{}, err
	}
	if err := ctx.Err(); err != nil {
		return ClusterOutcome{}, err
	}
	t.SetProgress(0.9)
	out := newClusterOutcome(c.Name(), res)
	sil, err := quality.Silhouette(ctx, data, res.Assignments)
	if err := ctx.Err(); err != nil {
		return ClusterOutcome{}, err
	}
	if err == nil {
		out.Silhouette = &sil
	}
	return out, nil
}

// runCluster partitions a stored dataset, optionally selecting K by
// silhouette sweep first.
func (j *JobService) runCluster(ctx context.Context, t *jobs.Task) (any, error) {
	var spec JobSpec
	if err := json.Unmarshal(t.Spec, &spec); err != nil {
		return nil, err
	}
	_, getSpan := obs.Start(ctx, "store.get")
	ds, err := j.c.st.Get(t.Owner, spec.Dataset)
	if err != nil {
		getSpan.End()
		return nil, err
	}
	data, err := ds.Matrix()
	getSpan.End()
	if err != nil {
		return nil, err
	}
	t.SetProgress(0.05)

	_, clSpan := obs.Start(ctx, "cluster")
	defer clSpan.End()
	if spec.KMin == 0 && spec.KMax == 0 {
		c, err := buildClusterer(&spec)
		if err != nil {
			return nil, err
		}
		out, err := clusterOutcome(ctx, t, c, data)
		if err != nil {
			return nil, err
		}
		return &out, nil
	}
	seed := spec.ClustSeed
	if seed == 0 {
		seed = 1
	}
	span := float64(spec.KMax - spec.KMin + 1)
	sel, res, err := cluster.SweepKBySilhouette(ctx, data, spec.KMin, spec.KMax, seed,
		func(k int, _ float64) {
			t.SetProgress(0.05 + 0.9*float64(k-spec.KMin+1)/span)
		})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := newClusterOutcome("kmeans", res)
	out.KScores = sel.Scores
	// The sweep scored the chosen k already; -1 marks a degenerate
	// clustering, which has no silhouette.
	if sil := sel.Scores[sel.K]; sil > -1 {
		out.Silhouette = &sil
	}
	return &out, nil
}

// Evaluation is the evaluate job's result: the paper's tables as a
// service.
type Evaluation struct {
	Algorithm string `json:"algorithm"`
	Rows      int    `json:"rows"`
	K         int    `json:"k"`
	// Misclassification and FMeasure compare the partition mined from the
	// normalized original against the one mined from the release —
	// Corollary 1 promises 0 and 1 respectively.
	Misclassification float64 `json:"misclassification"`
	FMeasure          float64 `json:"f_measure"`
	RandIndex         float64 `json:"rand_index"`
	SamePartition     bool    `json:"same_partition"`
	// VsLabels scores both partitions against ground-truth labels when
	// the dataset carries them: protection should not change how well
	// the algorithm recovers the true structure.
	VsLabels *LabelAgreement `json:"vs_labels,omitempty"`
}

// LabelAgreement scores both partitions against ground-truth labels.
type LabelAgreement struct {
	OriginalMisclassification  float64 `json:"original_misclassification"`
	ProtectedMisclassification float64 `json:"protected_misclassification"`
	OriginalFMeasure           float64 `json:"original_f_measure"`
	ProtectedFMeasure          float64 `json:"protected_f_measure"`
}

// runEvaluate protects the dataset with an ephemeral key and measures
// partition agreement between the normalized original and the release.
func (j *JobService) runEvaluate(ctx context.Context, t *jobs.Task) (any, error) {
	var spec JobSpec
	if err := json.Unmarshal(t.Spec, &spec); err != nil {
		return nil, err
	}
	ds, err := j.c.st.Get(t.Owner, spec.Dataset)
	if err != nil {
		return nil, err
	}
	opts, err := protectOptions(&spec)
	if err != nil {
		return nil, err
	}
	orig, err := ds.Matrix()
	if err != nil {
		return nil, err
	}
	t.SetProgress(0.05)
	res, err := j.c.eng.ProtectCtx(ctx, orig, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.SetProgress(0.3)

	// The comparison baseline is the normalized original: the release
	// differs from it only by the isometry, which is exactly what the
	// paper's utility tables isolate.
	secret := res.Secret()
	normalized := orig // Matrix() returned a copy; normalize it in place
	for i := 0; i < normalized.Rows(); i++ {
		secret.NormalizeRow(normalized.RawRow(i))
	}

	c, err := buildClusterer(&spec)
	if err != nil {
		return nil, err
	}
	onOrig, err := c.Cluster(normalized)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.SetProgress(0.6)
	// A fresh clusterer for the release: same algorithm, same seeding.
	c2, err := buildClusterer(&spec)
	if err != nil {
		return nil, err
	}
	onRelease, err := c2.Cluster(res.Released)
	if err != nil {
		return nil, err
	}
	t.SetProgress(0.85)

	misclass, err := quality.MisclassificationError(onOrig.Assignments, onRelease.Assignments)
	if err != nil {
		return nil, err
	}
	fmeasure, err := quality.FMeasure(onOrig.Assignments, onRelease.Assignments)
	if err != nil {
		return nil, err
	}
	randIdx, err := quality.RandIndex(onOrig.Assignments, onRelease.Assignments)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{
		Algorithm:         c.Name(),
		Rows:              ds.Rows,
		K:                 onRelease.K,
		Misclassification: misclass,
		FMeasure:          fmeasure,
		RandIndex:         randIdx,
		SamePartition:     misclass < 1e-12,
	}
	if labels := ds.Labels(); labels != nil {
		agree := &LabelAgreement{}
		if agree.OriginalMisclassification, err = quality.MisclassificationError(labels, onOrig.Assignments); err != nil {
			return nil, err
		}
		if agree.ProtectedMisclassification, err = quality.MisclassificationError(labels, onRelease.Assignments); err != nil {
			return nil, err
		}
		if agree.OriginalFMeasure, err = quality.FMeasure(labels, onOrig.Assignments); err != nil {
			return nil, err
		}
		if agree.ProtectedFMeasure, err = quality.FMeasure(labels, onRelease.Assignments); err != nil {
			return nil, err
		}
		ev.VsLabels = agree
	}
	return ev, nil
}
