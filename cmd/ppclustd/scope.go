package main

// ppscope: the cluster-wide observability plane.
//
//	GET /v1/traces/{id}           one trace, stitched across the ring
//	GET /v1/traces?route=&min_ms=&limit=   retained-trace listing
//	GET /v1/cluster/metrics       all-node aggregate (JSON; ?format=prometheus)
//	GET /v1/slo                   per-objective ok/warning/breach report
//
// The trace store retains finished span trees per node (sampled, always
// keeping slow and error traces); a trace that crossed the ring is
// reassembled on demand by asking every peer for its record over the
// cluster-key-guarded GET /v1/ring/trace and grafting each node's tree
// under the forward span that produced it. Cluster metrics read every
// peer's public /v1/metrics. Both ask through fanOutJSON, whose
// per-peer timeout keeps a dead peer from failing the view: it degrades
// to a partial answer naming the peer (peer_errors, scrape_errors).
// All four routes expose aggregate operational metadata only — span names, routes, durations, counters —
// never dataset rows or key material, so like /v1/metrics they are
// unauthenticated and exempt from ring forwarding (each node answers
// for the cluster from wherever the request lands).

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"ppclust/internal/metrics"
	"ppclust/internal/obs"
	"ppclust/internal/service"
)

// scopeConfig carries the flag-derived observability-plane settings
// from main into the server.
type scopeConfig struct {
	// TraceSample is the kept fraction of ordinary traces (slow and
	// error traces are always kept).
	TraceSample float64
	// TraceStoreBytes caps the per-node trace store (0: 16 MiB).
	TraceStoreBytes int64
	// SlowMs is the always-keep latency threshold (0: 250ms).
	SlowMs float64
	// SLOSpecs are -slo flag values, parsed by obs.ParseSLO.
	SLOSpecs []string
	// SLOWindow is the rolling evaluation window (0: 1m).
	SLOWindow time.Duration
}

// setupScope replaces the construction-time trace store with the
// flag-configured one and builds the SLO engine. Must run before the
// listener serves (the instrumentation edge reads both fields).
func (s *server) setupScope(cfg scopeConfig) error {
	s.traces = obs.NewTraceStore(obs.TraceStoreConfig{
		MaxBytes: cfg.TraceStoreBytes,
		Sample:   cfg.TraceSample,
		SlowMs:   cfg.SlowMs,
	}, s.svc.Registry())
	if len(cfg.SLOSpecs) > 0 {
		var objectives []obs.Objective
		for _, spec := range cfg.SLOSpecs {
			objs, err := obs.ParseSLO(spec)
			if err != nil {
				return fmt.Errorf("ppclustd: %w", err)
			}
			objectives = append(objectives, objs...)
		}
		s.slo = obs.NewSLOEngine(objectives, cfg.SLOWindow)
	}
	return nil
}

// nodeName is this node's label on trace records and cluster metrics:
// the ring node ID, or "self" when running single-node.
func (s *server) nodeName() string {
	if s.nodeID != "" {
		return s.nodeID
	}
	return "self"
}

// handleTraceList serves GET /v1/traces: retained-trace summaries from
// this node's store, newest first, without span payloads.
func (s *server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	minMs, err := parseFloat(q.Get("min_ms"), 0)
	if err != nil {
		writeErr(w, service.Invalid(err))
		return
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 1 {
			writeErr(w, service.Invalid(fmt.Errorf("bad limit %q", v)))
			return
		}
	}
	recs := s.traces.Query(obs.TraceQuery{Route: q.Get("route"), MinMs: minMs, Limit: limit})
	for i := range recs {
		recs[i].Spans = nil // listings are summaries; the span tree is per-ID
	}
	writeJSON(w, http.StatusOK, obs.TraceList{Traces: recs})
}

// handleTraceGet serves GET /v1/traces/{id}: the local record plus a
// fan-out to every ring peer, stitched into one span tree. Peers that
// fail to answer degrade the view (peer_errors) instead of failing it,
// as long as at least one record was found.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.ValidTraceID(id) {
		writeErr(w, service.Invalid(fmt.Errorf("bad trace id %q", id)))
		return
	}
	var recs []obs.TraceRecord
	if rec, ok := s.traces.Get(id); ok {
		recs = append(recs, rec)
	}
	peers, peerErrs := fanOutJSON[obs.TraceRecord](r.Context(), s.ring, "/v1/ring/trace?id="+url.QueryEscape(id))
	for _, rec := range peers {
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		writeErr(w, service.NotFoundErr(fmt.Errorf("trace %q is not retained on any reachable node", id)))
		return
	}
	view := obs.TraceView{ID: id, PeerErrors: peerErrs, Spans: obs.Stitch(recs)}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
	for _, rec := range recs {
		rec.Spans = nil
		view.Nodes = append(view.Nodes, rec)
	}
	writeJSON(w, http.StatusOK, view)
}

// localSnapshot is this node's full flat snapshot (service counters,
// derived gauges, ring gauges) — the same body /v1/metrics serves.
func (s *server) localSnapshot() map[string]int64 {
	snap := s.svc.MetricsSnapshot()
	if s.ring != nil {
		s.ring.addGauges(snap)
	}
	return snap
}

// handleClusterMetrics serves the all-node aggregate: this node's
// snapshot in-process plus every peer's /v1/metrics, merged by
// metrics.MergeSnapshots (counters and histograms summed, gauges
// node-labelled). Unreachable peers appear under scrape_errors; the
// aggregate over the reachable nodes is still served.
func (s *server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	local := s.localSnapshot()
	perNode, scrapeErrs := fanOutJSON[map[string]int64](r.Context(), s.ring, "/v1/metrics")
	nodes := clusterNodes(s.nodeName(), perNode)
	perNode[s.nodeName()] = local
	merged := metrics.MergeSnapshots(perNode)

	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, obs.ClusterMetrics{
			Nodes:        nodes,
			ScrapeErrors: scrapeErrs,
			Metrics:      merged,
		})
	case "prometheus", "prom":
		// The scrape annotations become gauges so the text form carries
		// the same degradation signal as the JSON form.
		merged["cluster_nodes_scraped"] = int64(len(nodes))
		for node := range scrapeErrs {
			merged[metrics.WithNodeLabel("cluster_scrape_error", node)] = 1
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		if err := obs.WritePromFlat(w, merged); err != nil {
			s.logger.Warn("cluster metrics exposition", "err", err.Error())
		}
	default:
		writeErr(w, service.Invalid(fmt.Errorf("unknown format %q (want json or prometheus)", format)))
	}
}

// handleSLO serves the per-objective evaluation, worst objectives
// first; Status is the worst state across all of them. With no -slo
// configured the report is {"enabled": false, "status": "ok"}.
func (s *server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	if s.slo == nil {
		writeJSON(w, http.StatusOK, obs.SLOReport{Enabled: false, Status: obs.SLOStateOK})
		return
	}
	sts := s.slo.Statuses()
	obs.SortStatuses(sts)
	status := obs.SLOStateOK
	for _, st := range sts {
		status = obs.WorseSLOState(status, st.State)
	}
	writeJSON(w, http.StatusOK, obs.SLOReport{
		Enabled:    true,
		WindowS:    s.slo.Window().Seconds(),
		Status:     status,
		Objectives: sts,
	})
}
