package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ppclust/internal/core"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/obs"
	"ppclust/internal/service"
)

// server is the HTTP transport over the internal/service layer:
//
//	POST /v1/protect?owner=NAME   protect a dataset, storing the secret
//	POST /v1/recover?owner=NAME   invert a release using the stored secret
//	GET  /v1/keys                 list owners (no secret material)
//	GET  /v1/metrics              expvar-style counters (metrics.go)
//	GET  /healthz                 liveness probe
//	/v1/datasets...               named owner-scoped uploads (datasets.go)
//	/v1/jobs...                   async analytics jobs (jobs.go)
//	/v1/federations...            multi-party federation (federations.go)
//
// Handlers own exactly three things: query/body decoding, bearer-token
// authorization, and the JSON envelope. All business logic — key
// management, dataset ingest, job validation and execution, federation
// lifecycle, tuning — lives in internal/service, and every error crosses
// one mapper (writeErr) into one envelope shape:
//
//	{"error": {"code": "...", "message": "..."}}
//
// Protect has two modes. mode=fit (the default) reads the whole body, fits
// normalization and a fresh PST-checked rotation key, stores the secret as
// a new key version for the owner, and streams the release back row by
// row. mode=stream reuses the owner's stored key to protect the body
// incrementally in fixed-size batches — constant memory, suitable for
// unbounded inputs. Recover always streams.
//
// A fit-protect or dataset upload that creates an owner mints that owner's
// bearer token (see auth.go); every request against an existing owner must
// present it unless authDisabled is set.
type server struct {
	svc          *service.Services
	maxBody      int64
	batchRows    int
	authDisabled bool
	// ring is non-nil when the daemon runs as one node of a multi-node
	// ring (see ring.go): it adds the /v1/ring routes and the forwarding
	// middleware in front of the mux.
	ring *ringRuntime
	// logger is the daemon's structured log sink (JSON on stderr by
	// default; main attaches the node ID in ring mode).
	logger *slog.Logger
	// slowLog, when positive, is the -slow-ms threshold above which a
	// request's full span tree is dumped to the log.
	slowLog time.Duration
	// nodeID is the ring identity stamped on trace records and cluster
	// metrics ("" single-node; see nodeName).
	nodeID string
	// traces retains finished span trees for the /v1/traces query API
	// (scope.go). Always non-nil after construction; setupScope replaces
	// it with the flag-configured store.
	traces *obs.TraceStore
	// slo evaluates per-route objectives over a rolling window (nil when
	// no -slo is configured; all its methods are nil-safe).
	slo *obs.SLOEngine
	// pulse samples the metrics surface into the /v1/metrics/history
	// store; alerts evaluates -alert rules and SLO breaches against each
	// sample; recorder captures incident bundles on firings; webhook
	// pushes firing/resolved events out. All nil until setupPulse runs
	// (pulse.go) and nil-safe throughout.
	pulse    *obs.Pulse
	alerts   *obs.AlertEngine
	recorder *obs.Recorder
	webhook  *obs.WebhookSink
	// ready and draining drive GET /readyz: ready flips true once
	// startup (including ring catch-up) completes; draining flips true
	// the moment shutdown begins, so load balancers stop routing to a
	// dying node while /healthz still answers 200 for liveness.
	ready    atomic.Bool
	draining atomic.Bool
}

func newServer(eng *engine.Engine, keys keyring.Store, store datastore.Store, mgr *jobs.Manager, feds *federation.Manager) *server {
	return newServerAdm(eng, keys, store, mgr, feds, service.AdmissionConfig{})
}

// newServerAdm is newServer with per-owner admission control configured
// (the zero config disables it).
func newServerAdm(eng *engine.Engine, keys keyring.Store, store datastore.Store, mgr *jobs.Manager, feds *federation.Manager, adm service.AdmissionConfig) *server {
	s := &server{
		svc: service.New(service.Config{
			Engine:      eng,
			Keys:        keys,
			Store:       store,
			Jobs:        mgr,
			Federations: feds,
			Admission:   adm,
		}),
		maxBody:   1 << 30,
		batchRows: 4096,
		logger:    obs.NewLogger(os.Stderr, slog.LevelInfo),
	}
	// Default trace store keeps every trace (deterministic for embedded
	// and test use); the daemon's -trace-sample default applies via
	// setupScope in main.
	s.traces = obs.NewTraceStore(obs.TraceStoreConfig{Sample: 1}, s.svc.Registry())
	// The closure reads the fields live so setupScope swaps apply; both
	// are settled before the listener serves.
	s.svc.AddGaugeSource(func() map[string]int64 {
		g := s.traces.Gauges()
		for k, v := range s.slo.Gauges() {
			g[k] = v
		}
		for k, v := range s.pulse.Gauges() {
			g[k] = v
		}
		for k, v := range s.alerts.Gauges() {
			g[k] = v
		}
		return g
	})
	s.ready.Store(true)
	return s
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/keys", s.handleKeys)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/metrics/history", s.handleMetricsHistory)
	mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	mux.HandleFunc("GET /v1/incidents", s.handleIncidentList)
	mux.HandleFunc("GET /v1/incidents/{id}", s.handleIncidentGet)
	mux.HandleFunc("GET /v1/incidents/{id}/files/{name}", s.handleIncidentFile)
	mux.HandleFunc("POST /v1/protect", s.handleProtect)
	mux.HandleFunc("POST /v1/recover", s.handleRecover)
	mux.HandleFunc("POST /v1/datasets", s.handleDatasetUpload)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleDatasetGet)
	mux.HandleFunc("GET /v1/datasets/{name}/rows", s.handleDatasetRows)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDatasetDelete)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("POST /v1/federations", s.handleFederationCreate)
	mux.HandleFunc("GET /v1/federations", s.handleFederationList)
	mux.HandleFunc("GET /v1/federations/{id}", s.handleFederationGet)
	mux.HandleFunc("DELETE /v1/federations/{id}", s.handleFederationDelete)
	mux.HandleFunc("POST /v1/federations/{id}/join", s.handleFederationJoin)
	mux.HandleFunc("POST /v1/federations/{id}/contribute", s.handleFederationContribute)
	mux.HandleFunc("DELETE /v1/federations/{id}/contribute", s.handleFederationWithdraw)
	mux.HandleFunc("POST /v1/federations/{id}/seal", s.handleFederationSeal)
	mux.HandleFunc("GET /v1/federations/{id}/result", s.handleFederationResult)
	// Middleware order, outside in: instrumentation sees every request;
	// ring forwarding runs before admission so the rate limit is charged
	// on the node that serves the request, not the one that happened to
	// receive it; admission guards the mux.
	var h http.Handler = s.admit(mux)
	if s.ring != nil {
		s.ring.traces = s.traces
		s.ring.registerRoutes(mux)
		// The pulse peer routes live here rather than in registerRoutes:
		// their handlers read server state (pulse store, alert engine).
		guard := s.ring.requireClusterKey
		mux.HandleFunc("GET /v1/ring/history", guard(s.handleRingHistory))
		mux.HandleFunc("GET /v1/ring/alerts", guard(s.handleRingAlerts))
		h = s.ring.middleware(h)
	}
	return s.instrument(h)
}

// admit applies per-owner admission control in front of the mux: every
// owner-keyed /v1 request waits for (or is shed by) the owner's token
// bucket. Ring-internal routes are exempt — replication and membership
// traffic must not compete with client budgets. A no-op handler when
// admission is disabled.
func (s *server) admit(next http.Handler) http.Handler {
	if !s.svc.AdmissionEnabled() {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Path
		if strings.HasPrefix(p, "/v1/") && !strings.HasPrefix(p, "/v1/ring") {
			if err := s.svc.Admit(r.Context(), r.URL.Query().Get("owner")); err != nil {
				writeErr(w, err)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": s.svc.Engine().Workers(),
	})
}

// handleReadyz is the routing probe: 503 while the node is draining or
// has not finished startup (ring catch-up included), 200 otherwise.
// /healthz stays pure liveness — it answers 200 throughout a graceful
// drain, which is exactly when a load balancer must stop sending new
// work here.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

func (s *server) handleKeys(w http.ResponseWriter, _ *http.Request) {
	infos, err := s.svc.Keys.List()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *server) handleProtect(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	owner := q.Get("owner")
	if err := keyring.ValidName(owner); err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	format, err := resolveFormat(q.Get("format"), r.Header)
	if err != nil {
		writeErr(w, service.Invalid(err))
		return
	}
	// Fit mode may create the owner; any touch of an existing owner's key
	// material (rotation included) requires that owner's token, and an
	// owner that exists only as a dataset-upload credential claim (no key
	// yet) must authenticate before its first key is fitted. The
	// existence check races with concurrent creations, but never into an
	// unauthenticated rotation: this exact snapshot is passed to
	// FitProtect, so an unknown-owner fit routes to the atomic
	// claim-with-token creation and a race loser gets a conflict.
	st, err := s.svc.Keys.State(owner)
	if err != nil {
		writeErr(w, err)
		return
	}
	if st.HasKey || st.HasCred {
		if aerr := s.authorize(r, owner); aerr != nil {
			writeErr(w, aerr)
			return
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	rr := newRowReader(format, body)

	switch mode := q.Get("mode"); mode {
	case "", "fit":
		s.protectFit(w, r, q, format, rr, owner, st)
	case "stream":
		s.protectStream(w, r, q, format, rr, owner)
	default:
		writeErr(w, service.Invalid(fmt.Errorf("unknown mode %q (want fit or stream)", mode)))
	}
}

// protectFit buffers the body and hands it to the key service, which
// fits, stores the key version (claiming the owner when new) and returns
// the release to stream back. The decoded body belongs to this request
// alone, so the release overwrites it instead of taking a second buffer
// of the same size.
func (s *server) protectFit(w http.ResponseWriter, r *http.Request, q urlValues, format string, rr rowReader, owner string, st service.OwnerState) {
	opts, err := parseProtectOptions(q)
	if err != nil {
		writeErr(w, service.Invalid(err))
		return
	}
	data, err := service.ReadAll(rr)
	if err != nil {
		writeErr(w, err)
		return
	}
	opts.Arena = engine.ReleaseInto(data.Raw())
	res, err := s.svc.Keys.FitProtect(r.Context(), owner, st, data, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", contentType(format))
	w.Header().Set("X-Ppclust-Owner", owner)
	w.Header().Set("X-Ppclust-Key-Version", strconv.Itoa(res.KeyVersion))
	if res.MintedToken != "" {
		w.Header().Set("X-Ppclust-Token", res.MintedToken)
	}
	rw := newRowWriter(format, w)
	if err := rw.WriteNames(rr.Names()); err != nil {
		s.logger.Warn("protect write header", "owner", owner, "trace", obs.TraceID(r.Context()), "err", err.Error())
		return
	}
	rel := res.Released
	for lo := 0; lo < rel.Rows(); lo += s.batchRows {
		if lo > 0 {
			flush(rw, w) // the last batch goes out with the end frame
		}
		hi := min(lo+s.batchRows, rel.Rows())
		if err := rw.WriteBatch(matrix.NewDense(hi-lo, rel.Cols(), rel.Raw()[lo*rel.Cols():hi*rel.Cols()])); err != nil {
			s.logger.Warn("protect write rows", "owner", owner, "row", lo, "trace", obs.TraceID(r.Context()), "err", err.Error())
			return
		}
	}
	if err := rw.Close(); err != nil {
		s.logger.Warn("protect close stream", "owner", owner, "trace", obs.TraceID(r.Context()), "err", err.Error())
		return
	}
	flush(rw, w)
}

// parseProtectOptions assembles engine options from fit-protect query
// parameters.
func parseProtectOptions(q urlValues) (engine.ProtectOptions, error) {
	opts := engine.ProtectOptions{Normalization: engine.NormZScore}
	switch norm := q.Get("norm"); norm {
	case "", "zscore":
	case "minmax":
		opts.Normalization = engine.NormMinMax
	default:
		return opts, fmt.Errorf("unknown norm %q (want zscore or minmax)", norm)
	}
	rho1, err := parseFloat(q.Get("rho1"), 0.3)
	if err != nil {
		return opts, err
	}
	rho2, err := parseFloat(q.Get("rho2"), 0.3)
	if err != nil {
		return opts, err
	}
	opts.Thresholds = []core.PST{{Rho1: rho1, Rho2: rho2}}
	if seedStr := q.Get("seed"); seedStr != "" {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad seed: %w", err)
		}
		opts.Seed = seed
	}
	return opts, nil
}

// protectStream protects the body incrementally under the owner's stored
// key: constant memory, unbounded input.
func (s *server) protectStream(w http.ResponseWriter, r *http.Request, q urlValues, format string, rr rowReader, owner string) {
	// The transform is frozen in stream mode; silently dropping fit-only
	// parameters would mislead callers about the privacy level applied.
	for _, p := range []string{"norm", "rho1", "rho2", "seed"} {
		if q.Get(p) != "" {
			writeErr(w, service.Invalid(fmt.Errorf("parameter %q only applies to mode=fit; the stored key's transform is frozen", p)))
			return
		}
	}
	tr, err := s.svc.Keys.StreamProtector(owner, q.Get("version"))
	if err != nil {
		writeErr(w, err)
		return
	}
	// Re-check the credential against the key the lookup actually found:
	// handleProtect's existence snapshot can race a concurrent first fit,
	// and streaming chosen rows under someone else's freshly created key
	// would hand an attacker a chosen-plaintext oracle for it.
	if err := s.authorize(r, owner); err != nil {
		writeErr(w, err)
		return
	}
	s.pump(r.Context(), w, format, rr, tr)
}

func (s *server) handleRecover(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	owner := q.Get("owner")
	if err := keyring.ValidName(owner); err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	format, err := resolveFormat(q.Get("format"), r.Header)
	if err != nil {
		writeErr(w, service.Invalid(err))
		return
	}
	tr, err := s.svc.Keys.Recoverer(owner, q.Get("version"))
	if err != nil {
		writeErr(w, err)
		return
	}
	// Inversion is the owner's privilege: require the owner's token.
	if err := s.authorize(r, owner); err != nil {
		writeErr(w, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	s.pump(r.Context(), w, format, newRowReader(format, body), tr)
}

// pump streams the request body through tr in batches of batchRows, all
// in one per-request buffer: each batch is read into it, transformed in
// place and written from it, as frames of exactly batchRows rows but the
// last — the framing of a fit release of the same body.
func (s *server) pump(ctx context.Context, w http.ResponseWriter, format string, rr rowReader, tr *service.BatchTransformer) {
	// Interleaving request-body reads with response writes needs explicit
	// full-duplex mode on HTTP/1.x; without it the server closes the body
	// at the first write.
	_ = http.NewResponseController(w).EnableFullDuplex()
	started, wroteNames := false, false
	start := func() {
		w.Header().Set("Content-Type", contentType(format))
		w.Header().Set("X-Ppclust-Owner", tr.Owner)
		w.Header().Set("X-Ppclust-Key-Version", strconv.Itoa(tr.KeyVersion))
		started = true
	}
	rw := newRowWriter(format, w)
	// abort kills the connection once the response has started: the
	// client must see a transport error, never a clean EOF on a
	// truncated dataset.
	abort := func(reason string, err error) {
		s.logger.Warn("stream abort", "owner", tr.Owner, "stage", reason,
			"trace", obs.TraceID(ctx), "err", err.Error())
		panic(http.ErrAbortHandler)
	}
	// A wrong-width body is refused on its header, before any of its rows
	// are buffered (an empty or unreadable one is left to the first read).
	if n := len(rr.Names()); n != 0 && n != tr.Cols {
		writeErr(w, service.Invalid(fmt.Errorf("body has %d columns, the key has %d", n, tr.Cols)))
		return
	}
	batches := service.NewBatches(rr, s.batchRows)
	for {
		batch, err := batches.Next()
		if err != nil && !errors.Is(err, io.EOF) {
			if !started {
				writeErr(w, err)
				return
			}
			abort("reading", err)
		}
		done := errors.Is(err, io.EOF)
		if batch != nil {
			if err := tr.Transform(batch); err != nil {
				if !started {
					writeErr(w, err)
					return
				}
				abort("transforming", err)
			}
			if !started {
				start()
				if err := rw.WriteNames(rr.Names()); err != nil {
					abort("writing header", err)
				}
				wroteNames = true
			}
			if err := rw.WriteBatch(batch); err != nil {
				abort("writing", err)
			}
			flush(rw, w)
		}
		if done {
			if !started {
				// Empty body: still answer with headers and no rows.
				start()
			}
			if wroteNames {
				// Mark the stream complete (the binary end frame); a
				// response that aborted earlier never reaches this and
				// stays detectably truncated.
				if err := rw.Close(); err != nil {
					abort("closing", err)
				}
			}
			flush(rw, w)
			return
		}
	}
}

// urlValues is the subset of url.Values the handlers consume.
type urlValues interface{ Get(string) string }

func parseFloat(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q: %w", s, err)
	}
	return v, nil
}

func flush(rw rowWriter, w http.ResponseWriter) {
	if err := rw.Flush(); err != nil {
		return
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errEnvelope is the one error shape every route returns.
type errEnvelope struct {
	Error errBody `json:"error"`
}

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeErr maps a service-classified error onto the HTTP status and the
// shared error envelope — the single exit for every failure response.
func writeErr(w http.ResponseWriter, err error) {
	code := service.Code(err)
	if code == service.CodeUnauthenticated {
		w.Header().Set("WWW-Authenticate", `Bearer realm="ppclust"`)
	}
	writeJSON(w, httpStatus(code), errEnvelope{Error: errBody{Code: code, Message: err.Error()}})
}

// writeErrWith writes the shared envelope plus extra top-level siblings
// (e.g. a job status alongside a not-ready conflict).
func writeErrWith(w http.ResponseWriter, err error, extra map[string]any) {
	code := service.Code(err)
	body := map[string]any{"error": errBody{Code: code, Message: err.Error()}}
	for k, v := range extra {
		body[k] = v
	}
	writeJSON(w, httpStatus(code), body)
}

// httpStatus maps envelope codes onto HTTP statuses.
func httpStatus(code string) int {
	switch code {
	case service.CodeNotFound:
		return http.StatusNotFound
	case service.CodeConflict:
		return http.StatusConflict
	case service.CodeForbidden:
		return http.StatusForbidden
	case service.CodeUnauthenticated:
		return http.StatusUnauthorized
	case service.CodeInvalid:
		return http.StatusBadRequest
	case service.CodeDraining:
		return http.StatusServiceUnavailable
	case service.CodeRateLimited:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}
