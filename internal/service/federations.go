package service

// FederationService: the networked multi-party workload. Several data
// holders, each an authenticated owner, collaboratively protect
// horizontal partitions of a common schema under one shared rotation key
// so a joint clustering can run over the union without any party seeing
// another's raw rows.
//
// The key agreement is the coordinator's first contribution: while the
// federation is open, only the coordinator may contribute, and that
// contribution *fits* the shared normalization parameters and rotation
// key (exactly like a fit-protect). Every later contribution streams
// through the frozen transform, so all contributions are images of one
// isometry and the joint clustering equals the plaintext union's.
//
// Contributions are stored as ordinary owner-scoped datasets named
// "fed.<id>" in each party's own namespace — the existing dataset
// isolation makes them owner-private. Raw rows transit the service
// during Contribute (it is the trusted protection point, as in protect)
// but only protected rows are stored. The shared secret lives inside the
// federation record and never crosses the API in either direction.
//
// Like job IDs, federation IDs are unguessable and double as the
// invitation capability: joining requires knowing the ID.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"ppclust/internal/core"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/matrix"
	"ppclust/internal/multiparty"
	"ppclust/internal/obs"
	"ppclust/internal/quality"
)

// contributionBatchRows sizes the stream-protect batches of a
// contribution ingest.
const contributionBatchRows = 4096

// ContributionDataset names a federation contribution inside a party's
// dataset namespace.
func ContributionDataset(fedID string) string { return "fed." + fedID }

// IsFederationDataset reports whether name sits in the reserved
// federation-contribution namespace. The ordinary dataset operations
// refuse to create or delete such names: a party deleting or
// re-uploading its fed.<id> dataset out of band would dangle the
// federation's contribution reference — or worse, substitute unprotected
// rows into the sealed joint analysis. Withdrawal goes through
// FederationService.Withdraw, which keeps the record consistent.
func IsFederationDataset(name string) bool { return strings.HasPrefix(name, "fed.") }

// CreateFederationSpec is the creation request body.
type CreateFederationSpec struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Norm    string   `json:"norm,omitempty"`
	Rho1    float64  `json:"rho1,omitempty"`
	Rho2    float64  `json:"rho2,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
}

// FedAnalysisSpec is the seal request body: which algorithm the joint
// clustering runs. The fields mirror the cluster job's.
type FedAnalysisSpec struct {
	Algorithm string  `json:"algorithm,omitempty"`
	K         int     `json:"k,omitempty"`
	Linkage   string  `json:"linkage,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
	MinPts    int     `json:"min_pts,omitempty"`
	Sigma     float64 `json:"sigma,omitempty"`
	ClustSeed int64   `json:"cluster_seed,omitempty"`
}

// clusterSpec converts the analysis parameters into the shape
// buildClusterer consumes.
func (a *FedAnalysisSpec) clusterSpec() *JobSpec {
	return &JobSpec{
		Algorithm: a.Algorithm,
		K:         a.K,
		Linkage:   a.Linkage,
		Eps:       a.Eps,
		MinPts:    a.MinPts,
		Sigma:     a.Sigma,
		ClustSeed: a.ClustSeed,
	}
}

// fedJobSpec is the persisted spec of a federated-cluster job.
type fedJobSpec struct {
	Federation string          `json:"federation"`
	Analysis   FedAnalysisSpec `json:"analysis"`
}

// FederationService manages the multi-party lifecycle.
type FederationService struct {
	c    *deps
	jobs *JobService
}

// Create opens a federation coordinated by owner.
func (f *FederationService) Create(owner string, spec CreateFederationSpec) (federation.View, error) {
	return f.CreateWithID("", owner, spec)
}

// CreateWithID is Create under a caller-chosen federation ID — the ring
// transport pre-generates the ID so it can route the creation to the
// node that will own the federation. An empty id means "generate one",
// which is plain Create.
func (f *FederationService) CreateWithID(id, owner string, spec CreateFederationSpec) (federation.View, error) {
	cfg := federation.Config{
		Columns: spec.Columns,
		Norm:    spec.Norm,
		Rho1:    spec.Rho1,
		Rho2:    spec.Rho2,
		Seed:    spec.Seed,
	}
	var v federation.View
	var err error
	if id == "" {
		v, err = f.c.feds.Create(owner, spec.Name, cfg)
	} else {
		v, err = f.c.feds.CreateWithID(id, owner, spec.Name, cfg)
	}
	return v, classify(err)
}

// List returns the federations owner belongs to (never nil).
func (f *FederationService) List(owner string) []federation.View {
	views := f.c.feds.ListFor(owner)
	if views == nil {
		views = []federation.View{}
	}
	return views
}

// Get returns owner's member view of federation id.
func (f *FederationService) Get(id, owner string) (federation.View, error) {
	v, err := f.c.feds.Get(id, owner)
	return v, classify(err)
}

// Delete tears federation id down (coordinator only), contributions
// included. Contributions that could not be removed are returned; their
// datasets remain individually deletable.
func (f *FederationService) Delete(id, owner string) (leftovers []string, err error) {
	contributed, err := f.c.feds.Delete(id, owner)
	if err != nil {
		return nil, classify(err)
	}
	for _, p := range contributed {
		if derr := f.c.st.Delete(p.Owner, p.Dataset); derr != nil && !errors.Is(derr, datastore.ErrNotFound) {
			leftovers = append(leftovers, p.Owner+"/"+p.Dataset)
			continue
		}
		f.c.replicate(ReplicationEvent{Kind: ReplicateDatasetDelete, Owner: p.Owner, Dataset: p.Dataset})
	}
	return leftovers, nil
}

// Join adds owner as a member of federation id.
func (f *FederationService) Join(id, owner string) (federation.View, error) {
	v, err := f.c.feds.Join(id, owner)
	return v, classify(err)
}

// Contribute ingests a member's horizontal partition. While the
// federation is open the coordinator's contribution fits and freezes the
// shared transform; afterwards any member's contribution is
// stream-protected under the frozen key. Either way only protected rows
// are stored, as the member's owner-scoped "fed.<id>" dataset.
func (f *FederationService) Contribute(id, owner string, src RowSource) (federation.View, error) {
	v, err := f.Get(id, owner)
	if err != nil {
		return federation.View{}, err
	}
	switch {
	case v.State == federation.StateOpen && owner == v.Coordinator:
		return f.contributeFit(id, owner, v, src)
	case v.State == federation.StateOpen:
		return federation.View{}, mark(ErrConflict, fmt.Errorf("%w: federation %q has no frozen key yet; coordinator %q contributes first",
			federation.ErrState, id, v.Coordinator))
	case v.State == federation.StateFrozen:
		return f.contributeStream(id, owner, v, src)
	default:
		return federation.View{}, mark(ErrConflict, fmt.Errorf("%w: federation %q is sealed", federation.ErrState, id))
	}
}

// contributeFit is the key agreement: the coordinator's partition fits
// the shared normalization and rotation key, its release becomes the
// first contribution, and the federation freezes.
func (f *FederationService) contributeFit(id, owner string, v federation.View, src RowSource) (federation.View, error) {
	data, err := ReadAll(src)
	if err != nil {
		return federation.View{}, err
	}
	if data.Cols() != len(v.Columns) {
		return federation.View{}, Invalid(fmt.Errorf("contribution has %d columns, federation schema has %d", data.Cols(), len(v.Columns)))
	}
	cfg, err := f.c.feds.FitConfig(id)
	if err != nil {
		return federation.View{}, classify(err)
	}
	norm := cfg.Norm
	if norm == "" {
		norm = engine.NormZScore
	}
	rho1, rho2 := cfg.Rho1, cfg.Rho2
	if rho1 == 0 {
		rho1 = 0.3
	}
	if rho2 == 0 {
		rho2 = 0.3
	}
	res, err := f.c.eng.Protect(data, engine.ProtectOptions{
		Normalization: norm,
		Thresholds:    []core.PST{{Rho1: rho1, Rho2: rho2}},
		Seed:          cfg.Seed,
	})
	if err != nil {
		return federation.View{}, classify(err)
	}
	name := ContributionDataset(id)
	if err := f.storeContribution(owner, name, v.Columns, res.Released); err != nil {
		return federation.View{}, err
	}
	fv, err := f.c.feds.Freeze(id, owner, res.Secret(), name, res.Released.Rows())
	if err != nil {
		// A concurrent freeze won; drop the just-stored duplicate rows.
		_ = f.c.st.Delete(owner, name)
		return federation.View{}, classify(err)
	}
	f.c.rowsProtected.Add(int64(res.Released.Rows()))
	f.c.replicate(ReplicationEvent{Kind: ReplicateDataset, Owner: owner, Dataset: name})
	return fv, nil
}

// contributeStream protects a member's partition incrementally under the
// frozen shared key and stores the release block by block.
func (f *FederationService) contributeStream(id, owner string, v federation.View, src RowSource) (federation.View, error) {
	if p := partyOf(v, owner); p != nil && p.Contributed() {
		return federation.View{}, mark(ErrConflict, fmt.Errorf("%w: %q already contributed %d rows", federation.ErrExists, owner, p.Rows))
	}
	secret, err := f.c.feds.Secret(id)
	if err != nil {
		return federation.View{}, classify(err)
	}
	sp, err := f.c.eng.NewStreamProtector(secret)
	if err != nil {
		return federation.View{}, classify(err)
	}
	name := ContributionDataset(id)
	b, err := datastore.NewBuilder(owner, name, v.Columns)
	if err != nil {
		return federation.View{}, classify(err)
	}
	// A wrong-width body is refused on its header, before any of its rows
	// are buffered; every batch then has the schema's width.
	if n := len(src.Names()); n != 0 && n != len(v.Columns) {
		return federation.View{}, Invalid(fmt.Errorf("contribution has %d columns, federation schema has %d", n, len(v.Columns)))
	}
	batches := NewBatches(src, contributionBatchRows)
	for {
		batch, err := batches.Next()
		if err != nil && !errors.Is(err, io.EOF) {
			return federation.View{}, err
		}
		done := errors.Is(err, io.EOF)
		if batch != nil {
			if err := sp.ProtectInPlace(batch); err != nil {
				return federation.View{}, classify(err)
			}
			for i := 0; i < batch.Rows(); i++ {
				if err := b.Append(batch.RawRow(i)); err != nil {
					return federation.View{}, classify(err)
				}
			}
		}
		if done {
			break
		}
	}
	ds, err := b.Finish(time.Now())
	if err != nil {
		return federation.View{}, classify(err)
	}
	if err := f.c.st.Put(ds); err != nil {
		return federation.View{}, classify(err)
	}
	fv, err := f.c.feds.Contribute(id, owner, name, ds.Rows)
	if err != nil {
		_ = f.c.st.Delete(owner, name)
		return federation.View{}, classify(err)
	}
	f.c.rowsProtected.Add(int64(ds.Rows))
	f.c.replicate(ReplicationEvent{Kind: ReplicateDataset, Owner: owner, Dataset: name})
	return fv, nil
}

func partyOf(v federation.View, owner string) *federation.Party {
	for i := range v.Parties {
		if v.Parties[i].Owner == owner {
			return &v.Parties[i]
		}
	}
	return nil
}

// Withdraw removes owner's own contribution (before seal) and deletes its
// stored dataset, returning the dataset name.
func (f *FederationService) Withdraw(id, owner string) (string, error) {
	name, err := f.c.feds.Withdraw(id, owner)
	if err != nil {
		return "", classify(err)
	}
	if err := f.c.st.Delete(owner, name); err != nil && !errors.Is(err, datastore.ErrNotFound) {
		return "", classify(err)
	}
	f.c.replicate(ReplicationEvent{Kind: ReplicateDatasetDelete, Owner: owner, Dataset: name})
	return name, nil
}

// Seal finalizes the federation and schedules the joint analysis as a
// federated-cluster job under the coordinator owner. The scheduled job
// adopts the sealing request's trace ID, so the joint analysis is
// attributable to the seal that started it.
func (f *FederationService) Seal(ctx context.Context, id, owner string, analysis FedAnalysisSpec) (federation.View, error) {
	if _, err := buildClusterer(analysis.clusterSpec()); err != nil {
		return federation.View{}, err
	}
	// Cheap pre-check before submitting the job; the authoritative check
	// is the Seal transition below, which a concurrent seal can still
	// lose — then the freshly submitted duplicate job is cancelled.
	v, err := f.Get(id, owner)
	if err != nil {
		return federation.View{}, err
	}
	if owner != v.Coordinator {
		return federation.View{}, mark(ErrForbidden, fmt.Errorf("%w: only %q can seal", federation.ErrNotCoordinator, v.Coordinator))
	}
	raw, err := json.Marshal(fedJobSpec{Federation: id, Analysis: analysis})
	if err != nil {
		return federation.View{}, classify(err)
	}
	st, err := f.c.mgr.SubmitTraced(v.Coordinator, JobFederatedCluster, raw, obs.TraceID(ctx))
	if err != nil {
		return federation.View{}, classify(err)
	}
	fv, err := f.c.feds.Seal(id, owner, st.ID, raw)
	if err != nil {
		_, _ = f.c.mgr.Cancel(v.Coordinator, st.ID)
		return federation.View{}, classify(err)
	}
	return fv, nil
}

// Result returns the joint analysis outcome to any member. While the job
// is still in flight it returns ErrConflict (wrapping jobs.ErrNotTerminal)
// together with the job's live status; a lost job (drained, restarted
// away, evicted from retention) is transparently rescheduled and reported
// the same way.
func (f *FederationService) Result(id, owner string) (any, jobs.Status, error) {
	v, err := f.Get(id, owner)
	if err != nil {
		return nil, jobs.Status{}, err
	}
	if v.JobID == "" {
		return nil, jobs.Status{}, mark(ErrConflict, fmt.Errorf("%w: federation %q is not sealed", federation.ErrState, id))
	}
	res, st, err := f.c.mgr.Result(v.Coordinator, v.JobID)
	switch {
	case errors.Is(err, jobs.ErrNotTerminal):
		return nil, st, classify(err)
	case errors.Is(err, jobs.ErrNotFound),
		err == nil && st.State == jobs.StateCancelled:
		// The joint job did not survive: it was cancelled by a drain, or
		// restarted away, or evicted from finished-job retention before
		// anyone fetched the result. The sealed federation still holds
		// everything needed, so reschedule instead of stranding it.
		st2, rerr := f.reschedule(id, v.Coordinator)
		if rerr != nil {
			return nil, jobs.Status{}, rerr
		}
		return nil, st2, mark(ErrConflict, fmt.Errorf("%w: joint analysis was rescheduled; poll again", jobs.ErrNotTerminal))
	case err != nil:
		return nil, jobs.Status{}, classify(err)
	}
	return res, st, nil
}

// reschedule resubmits a sealed federation's stored analysis and repoints
// the record at the fresh job. Serialized so concurrent result fetches
// cannot fan one lost job out into several.
func (f *FederationService) reschedule(id, coordinator string) (jobs.Status, error) {
	f.c.fedResched.Lock()
	defer f.c.fedResched.Unlock()
	// Another fetch may have rescheduled while this one waited: if the
	// current job exists again, just report its status.
	if v, err := f.c.feds.Get(id, coordinator); err == nil && v.JobID != "" {
		if st, err := f.c.mgr.Get(coordinator, v.JobID); err == nil && st.State != jobs.StateCancelled {
			return st, nil
		}
	}
	raw, err := f.c.feds.SealedAnalysis(id)
	if err != nil {
		return jobs.Status{}, classify(err)
	}
	st, err := f.c.mgr.Submit(coordinator, JobFederatedCluster, raw)
	if err != nil {
		return jobs.Status{}, classify(err)
	}
	if _, err := f.c.feds.Reschedule(id, st.ID); err != nil {
		_, _ = f.c.mgr.Cancel(coordinator, st.ID)
		return jobs.Status{}, classify(err)
	}
	return st, nil
}

// FedResultParty locates one party's rows inside the joint assignment
// vector.
type FedResultParty struct {
	Owner  string `json:"owner"`
	Rows   int    `json:"rows"`
	Offset int    `json:"offset"`
}

// FedOutcome is the federated-cluster job result.
type FedOutcome struct {
	Federation  string           `json:"federation"`
	Algorithm   string           `json:"algorithm"`
	K           int              `json:"k"`
	Parties     []FedResultParty `json:"parties"`
	Assignments []int            `json:"assignments"`
	Inertia     float64          `json:"inertia,omitempty"`
	Iterations  int              `json:"iterations,omitempty"`
	Converged   bool             `json:"converged"`
	Silhouette  *float64         `json:"silhouette,omitempty"`
}

// runFederatedCluster merges the sealed federation's protected
// contributions in join order and clusters the union — the central
// miner's workload, executed without any raw data ever reaching it.
func (f *FederationService) runFederatedCluster(ctx context.Context, t *jobs.Task) (any, error) {
	var spec fedJobSpec
	if err := json.Unmarshal(t.Spec, &spec); err != nil {
		return nil, err
	}
	parties, err := f.c.feds.Contributions(spec.Federation)
	if err != nil {
		return nil, err
	}
	if coord, err := f.c.feds.Coordinator(spec.Federation); err != nil {
		return nil, err
	} else if coord != t.Owner {
		return nil, fmt.Errorf("%w: job owner %q is not the coordinator", federation.ErrNotCoordinator, t.Owner)
	}
	blocks := make([]*matrix.Dense, 0, len(parties))
	outParties := make([]FedResultParty, 0, len(parties))
	offset := 0
	for _, p := range parties {
		ds, err := f.c.st.Get(p.Owner, p.Dataset)
		if err != nil {
			return nil, fmt.Errorf("contribution %s/%s: %w", p.Owner, p.Dataset, err)
		}
		data, err := ds.Matrix()
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, data)
		outParties = append(outParties, FedResultParty{Owner: p.Owner, Rows: ds.Rows, Offset: offset})
		offset += ds.Rows
	}
	t.SetProgress(0.1)
	joint, err := multiparty.JoinHorizontal(blocks...)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.SetProgress(0.2)
	c, err := buildClusterer(spec.Analysis.clusterSpec())
	if err != nil {
		return nil, err
	}
	res, err := c.Cluster(joint)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.SetProgress(0.9)
	out := &FedOutcome{
		Federation:  spec.Federation,
		Algorithm:   c.Name(),
		K:           res.K,
		Parties:     outParties,
		Assignments: res.Assignments,
		Inertia:     res.Inertia,
		Iterations:  res.Iterations,
		Converged:   res.Converged,
	}
	if sil, err := quality.Silhouette(joint, res.Assignments); err == nil {
		out.Silhouette = &sil
	}
	return out, nil
}

// storeContribution writes a protected matrix into the datastore as
// owner's named dataset.
func (f *FederationService) storeContribution(owner, name string, attrs []string, released *matrix.Dense) error {
	b, err := datastore.NewBuilder(owner, name, attrs)
	if err != nil {
		return classify(err)
	}
	for i := 0; i < released.Rows(); i++ {
		if err := b.Append(released.RawRow(i)); err != nil {
			return classify(err)
		}
	}
	ds, err := b.Finish(time.Now())
	if err != nil {
		return classify(err)
	}
	return classify(f.c.st.Put(ds))
}
