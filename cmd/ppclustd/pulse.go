package main

// pppulse: the daemon's self-monitoring plane (see internal/obs).
//
//	GET /v1/metrics/history?series=&since=&step=   sampled time series
//	GET /v1/alerts                                  live alert instances
//	GET /v1/incidents                               captured incident bundles
//	GET /v1/incidents/{id}                          one bundle's manifest
//	GET /v1/incidents/{id}/files/{name}             one bundle file, raw
//
// A sampler snapshots the full metrics surface every -pulse-interval
// into a bounded in-memory store; the alert engine evaluates -alert
// threshold rules and the configured SLOs against every sample, pushing
// firing/resolved transitions to the -alert-webhook sink and to the
// flight recorder, which captures an on-disk incident bundle (profiles,
// goroutine dump, worst traces, history excerpt) per firing.
//
// History and alerts answer for the whole ring with ?scope=cluster:
// every peer is asked, through fanOutJSON, on the same local route a
// client calls, and an unreachable peer degrades the response
// (peer_errors) rather than failing it. Like the rest of the
// observability plane these routes expose operational metadata only —
// series names, rates, percentiles, rule states — never dataset rows or
// key material, so they are unauthenticated and exempt from ring
// forwarding.

import (
	"fmt"
	"net/http"
	"net/url"
	"path"
	"sort"
	"strconv"
	"strings"
	"time"

	"ppclust/internal/metrics"
	"ppclust/internal/obs"
	"ppclust/internal/service"
)

// pulseConfig carries the flag-derived pppulse settings from main into
// the server.
type pulseConfig struct {
	// Interval is the sampling cadence (0: obs.DefaultPulseInterval).
	Interval time.Duration
	// Retention is the history window (0: obs.DefaultPulseRetention).
	Retention time.Duration
	// MaxBytes caps the history store (0: 4 MiB).
	MaxBytes int64
	// AlertRules are the parsed -alert threshold rules.
	AlertRules []obs.AlertRule
	// AlertDebounce spaces firing notifications per rule (0:
	// obs.DefaultAlertDebounce; negative: none).
	AlertDebounce time.Duration
	// SLOFor is how long an SLO objective must stay in breach before its
	// implicit alert fires.
	SLOFor time.Duration
	// WebhookURL, when set, receives firing/resolved events as JSON POSTs.
	WebhookURL string
	// IncidentDir, when set, enables the flight recorder there.
	IncidentDir string
	// IncidentRetention caps retained bundles (0: 16).
	IncidentRetention int
	// CPUProfileDur is the per-incident CPU capture (0: 1s; negative:
	// disabled — used by tests that capture concurrently).
	CPUProfileDur time.Duration
}

// setupPulse builds the sampler, the alert engine, the webhook sink and
// the flight recorder, then starts sampling. Must run after setupScope
// and ring wiring (the sampler snapshots both) and before the listener
// serves. closePulse undoes it.
func (s *server) setupPulse(cfg pulseConfig) error {
	reg := s.svc.Registry()
	if cfg.WebhookURL != "" {
		s.webhook = obs.NewWebhookSink(obs.WebhookConfig{URL: cfg.WebhookURL}, reg)
	}
	if cfg.IncidentDir != "" {
		rec, err := obs.NewRecorder(obs.RecorderConfig{
			Dir:          cfg.IncidentDir,
			Node:         s.nodeName(),
			MaxIncidents: cfg.IncidentRetention,
			CPUProfile:   cfg.CPUProfileDur,
		}, s.traces, nil, reg)
		if err != nil {
			return fmt.Errorf("ppclustd: %w", err)
		}
		s.recorder = rec
	}
	if len(cfg.AlertRules) > 0 || s.slo != nil {
		s.alerts = obs.NewAlertEngine(obs.AlertEngineConfig{
			Rules:    cfg.AlertRules,
			SLO:      s.slo,
			SLOFor:   cfg.SLOFor,
			Debounce: cfg.AlertDebounce,
			Node:     s.nodeName(),
			Notify: func(ev obs.AlertEvent) {
				s.webhook.Notify(ev)
				s.recorder.OnEvent(ev)
			},
		}, reg)
	}
	s.pulse = obs.NewPulse(obs.PulseConfig{
		Interval:  cfg.Interval,
		Retention: cfg.Retention,
		MaxBytes:  cfg.MaxBytes,
		OnSample: func(t time.Time, values map[string]float64) {
			s.alerts.Eval(t, values)
		},
	}, s.localSnapshot, reg)
	if s.recorder != nil {
		// The recorder's history excerpt reads the same store the alert
		// fired from; the pulse pointer is settled before sampling starts.
		s.recorder.SetPulse(s.pulse)
	}
	s.pulse.Start()
	return nil
}

// closePulse stops sampling and drains the notification sinks: pending
// webhook deliveries go out, in-flight incident captures finish.
func (s *server) closePulse() {
	if s.pulse != nil {
		s.pulse.Close()
	}
	s.recorder.Wait()
	if s.webhook != nil {
		s.webhook.Close()
	}
}

// parseHistoryQuery decodes /v1/metrics/history's query parameters:
// series= is a comma-separated (and repeatable) substring filter,
// since= a look-back duration ("5m") or RFC 3339 instant, step= a
// downsampling bucket with agg= folding.
func parseHistoryQuery(q url.Values) (obs.HistoryQuery, error) {
	var hq obs.HistoryQuery
	for _, v := range q["series"] {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				hq.Series = append(hq.Series, part)
			}
		}
	}
	if v := q.Get("since"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			hq.Since = time.Now().Add(-d)
		} else if t, err := time.Parse(time.RFC3339, v); err == nil {
			hq.Since = t
		} else {
			return hq, fmt.Errorf("bad since %q (want a look-back duration like 5m or an RFC 3339 time)", v)
		}
	}
	if v := q.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return hq, fmt.Errorf("bad step %q", v)
		}
		hq.Step = d
	}
	switch agg := q.Get("agg"); agg {
	case "", "avg", "max", "min", "last":
		hq.Agg = agg
	default:
		return hq, fmt.Errorf("bad agg %q (want avg, max, min or last)", agg)
	}
	if v := q.Get("max_series"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return hq, fmt.Errorf("bad max_series %q", v)
		}
		hq.MaxSeries = n
	}
	return hq, nil
}

// handleMetricsHistory serves the sampled time series: this node's by
// default, every reachable node's with ?scope=cluster (series names
// node-labelled, dead peers degrading to peer_errors).
func (s *server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	hq, err := parseHistoryQuery(r.URL.Query())
	if err != nil {
		writeErr(w, service.Invalid(err))
		return
	}
	local, truncated := s.pulse.Query(hq)
	view := obs.HistoryView{IntervalMs: int64(s.pulse.Interval() / time.Millisecond), Truncated: truncated, Series: local}
	switch scope := r.URL.Query().Get("scope"); scope {
	case "", "local":
		writeJSON(w, http.StatusOK, view)
	case "cluster":
		for i := range view.Series {
			view.Series[i].Name = metrics.WithNodeLabel(view.Series[i].Name, s.nodeName())
		}
		// Peers answer the same query in their default, local scope.
		q := r.URL.Query()
		q.Del("scope")
		peers, errs := fanOutJSON[obs.HistoryView](r.Context(), s.ring, "/v1/metrics/history?"+q.Encode())
		for node, pv := range peers {
			view.Truncated = view.Truncated || pv.Truncated
			for _, hs := range pv.Series {
				hs.Name = metrics.WithNodeLabel(hs.Name, node)
				view.Series = append(view.Series, hs)
			}
		}
		view.Nodes, view.PeerErrors = clusterNodes(s.nodeName(), peers), errs
		sort.Slice(view.Series, func(i, j int) bool { return view.Series[i].Name < view.Series[j].Name })
		writeJSON(w, http.StatusOK, view)
	default:
		writeErr(w, service.Invalid(fmt.Errorf("unknown scope %q (want local or cluster)", scope)))
	}
}

// handleAlerts serves the live alert instances: this node's by default,
// every reachable node's with ?scope=cluster. Each alert already
// carries the node that evaluated it.
func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	view := obs.AlertList{Enabled: s.alerts != nil, Alerts: s.alerts.Alerts()}
	if view.Alerts == nil {
		view.Alerts = []obs.Alert{}
	}
	switch scope := r.URL.Query().Get("scope"); scope {
	case "", "local":
		writeJSON(w, http.StatusOK, view)
	case "cluster":
		peers, errs := fanOutJSON[obs.AlertList](r.Context(), s.ring, "/v1/alerts")
		for _, pv := range peers {
			view.Enabled = view.Enabled || pv.Enabled
			view.Alerts = append(view.Alerts, pv.Alerts...)
		}
		view.Nodes, view.PeerErrors = clusterNodes(s.nodeName(), peers), errs
		sort.Slice(view.Alerts, func(i, j int) bool {
			a, b := view.Alerts[i], view.Alerts[j]
			if a.Rule != b.Rule {
				return a.Rule < b.Rule
			}
			if a.Node != b.Node {
				return a.Node < b.Node
			}
			return a.Series < b.Series
		})
		writeJSON(w, http.StatusOK, view)
	default:
		writeErr(w, service.Invalid(fmt.Errorf("unknown scope %q (want local or cluster)", scope)))
	}
}

// handleIncidentList serves the captured incident bundles, newest first.
func (s *server) handleIncidentList(w http.ResponseWriter, _ *http.Request) {
	list := s.recorder.List()
	if list == nil {
		list = []obs.IncidentMeta{}
	}
	writeJSON(w, http.StatusOK, obs.IncidentList{Enabled: s.recorder != nil, Incidents: list})
}

// handleIncidentGet serves one bundle's manifest.
func (s *server) handleIncidentGet(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeErr(w, service.NotFoundErr(fmt.Errorf("incident recorder not enabled (set -incident-dir)")))
		return
	}
	meta, err := s.recorder.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, service.NotFoundErr(fmt.Errorf("incident %q not found", r.PathValue("id"))))
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleIncidentFile streams one bundle file (profile, dump, excerpt)
// for download.
func (s *server) handleIncidentFile(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeErr(w, service.NotFoundErr(fmt.Errorf("incident recorder not enabled (set -incident-dir)")))
		return
	}
	id, name := r.PathValue("id"), r.PathValue("name")
	raw, err := s.recorder.ReadFile(id, name)
	if err != nil {
		writeErr(w, service.NotFoundErr(fmt.Errorf("incident file %s/%s not found", id, name)))
		return
	}
	switch path.Ext(name) {
	case ".json":
		w.Header().Set("Content-Type", "application/json")
	case ".txt":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	default:
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	_, _ = w.Write(raw)
}
