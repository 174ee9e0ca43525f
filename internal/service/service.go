// Package service is the transport-agnostic application layer of the
// ppclust daemon: datasets, async analytics jobs, multi-party federation,
// privacy–utility tuning and key management behind typed request/response
// structs and sentinel errors.
//
// cmd/ppclustd's HTTP handlers are thin JSON/auth adapters over this
// package, and the same services are drivable fully in-process — see
// examples/embedded — so the daemon's workloads can be embedded as a
// library without a socket.
//
// Errors: every method returns a chain carrying one of the package
// sentinels (ErrNotFound, ErrConflict, ErrForbidden, ErrUnauthenticated,
// ErrInvalid, ErrDraining, ErrInternal); Code maps it to the wire code of
// the shared error envelope.
package service

import (
	"sync"

	"ppclust"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/metrics"

	"ppclust/internal/datastore"
)

// Config wires the subsystems a Services instance runs on.
type Config struct {
	// Engine runs the parallel RBT transforms. Required.
	Engine *engine.Engine
	// Keys stores owner secrets and credentials. Required.
	Keys keyring.Store
	// Store holds the owner-scoped datasets. Required.
	Store datastore.Store
	// Jobs executes the async workloads. Required; New registers the job
	// runners on it.
	Jobs *jobs.Manager
	// Federations tracks the multi-party workload. Required.
	Federations *federation.Manager
	// Metrics receives the services' counters (nil: a fresh registry).
	Metrics *metrics.Registry
	// Admission configures per-owner rate limiting (zero: disabled).
	Admission AdmissionConfig
}

// deps is the dependency bundle every service shares.
type deps struct {
	eng  *engine.Engine
	keys keyring.Store
	st   datastore.Store
	mgr  *jobs.Manager
	feds *federation.Manager

	reg                                        *metrics.Registry
	rowsProtected, rowsRecovered, rowsIngested *metrics.Counter
	tuneEvaluated, tunePruned, tuneFailed      *metrics.Counter

	// ring is the cluster seam (nil when running single-node); adm is
	// per-owner admission control (nil when disabled).
	ring RingHook
	adm  *admission

	// fedResched serializes rescheduling of lost federation jobs so
	// concurrent result fetches submit one replacement, not several.
	fedResched sync.Mutex

	// gaugeSources are extra live gauge providers (trace store occupancy,
	// SLO burn rates) merged into Gauges at read time. Guarded by gaugeMu
	// so late registration (test setup, post-flag wiring) is race-free.
	gaugeMu      sync.RWMutex
	gaugeSources []func() map[string]int64
}

// Services is the daemon's application layer: one typed service per
// workload over one shared dependency core.
type Services struct {
	Datasets    *DatasetService
	Keys        *KeyService
	Jobs        *JobService
	Federations *FederationService
	Tune        *TuneService

	c *deps
}

// New wires the services and registers the job runners on cfg.Jobs.
func New(cfg Config) *Services {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &deps{
		eng:           cfg.Engine,
		keys:          cfg.Keys,
		st:            cfg.Store,
		mgr:           cfg.Jobs,
		feds:          cfg.Federations,
		reg:           reg,
		rowsProtected: reg.Counter("rows_protected_total"),
		rowsRecovered: reg.Counter("rows_recovered_total"),
		rowsIngested:  reg.Counter("rows_ingested_total"),
		tuneEvaluated: reg.Counter("tune_candidates_evaluated_total"),
		tunePruned:    reg.Counter("tune_candidates_pruned_total"),
		tuneFailed:    reg.Counter("tune_candidates_failed_total"),
	}
	c.adm = newAdmission(cfg.Admission, reg)
	s := &Services{
		Datasets:    &DatasetService{c: c},
		Keys:        &KeyService{c: c},
		Jobs:        &JobService{c: c},
		Federations: &FederationService{c: c},
		Tune:        &TuneService{c: c},
		c:           c,
	}
	s.Jobs.keys = s.Keys
	s.Jobs.tune = s.Tune
	s.Jobs.feds = s.Federations
	s.Federations.jobs = s.Jobs
	s.Jobs.register()
	return s
}

// Registry exposes the metrics registry so a transport can add its own
// instrumentation (request counters, latency histograms) next to the
// service counters.
func (s *Services) Registry() *metrics.Registry { return s.c.reg }

// AddGaugeSource registers an additional live gauge provider whose map
// is merged into MetricsSnapshot at read time. The
// transport uses it to surface observability-plane state — trace-store
// occupancy, SLO burn rates — without the service layer knowing those
// subsystems. A nil fn is ignored; a source returning nil contributes
// nothing.
func (s *Services) AddGaugeSource(fn func() map[string]int64) {
	if fn == nil {
		return
	}
	s.c.gaugeMu.Lock()
	s.c.gaugeSources = append(s.c.gaugeSources, fn)
	s.c.gaugeMu.Unlock()
}

// Engine returns the wired engine (metadata like worker counts).
func (s *Services) Engine() *engine.Engine { return s.c.eng }

func toEngineSecret(sec ppclust.OwnerSecret) engine.Secret {
	return engine.Secret{
		Key:           sec.Key,
		Normalization: string(sec.Normalization),
		ParamsA:       sec.ParamsA,
		ParamsB:       sec.ParamsB,
		Columns:       sec.Columns,
	}
}

func fromEngineSecret(sec engine.Secret) ppclust.OwnerSecret {
	return ppclust.OwnerSecret{
		Key:           sec.Key,
		Normalization: ppclust.Normalization(sec.Normalization),
		ParamsA:       sec.ParamsA,
		ParamsB:       sec.ParamsB,
		Columns:       sec.Columns,
	}
}
