package main

// pppulse integration tests. The tentpole acceptance runs a real
// 3-node ring with sampling, SLO alerting and the flight recorder on
// every node, breaches an objective on one node, and checks the whole
// pipeline: the alert goes pending→firing and is visible from every
// node's /v1/alerts, the webhook stub receives exactly one (debounced)
// notification, an incident bundle lands on disk with a goroutine dump
// and resolvable trace IDs, and /v1/metrics/history shows the latency
// series over the threshold. The smaller tests cover the local HTTP
// surface: query validation, disabled-plane answers and incident 404s.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ppclust/internal/engine"
	"ppclust/internal/keyring"
	"ppclust/internal/obs"
	"ppclust/ppclient"
)

// alertSink is a webhook stub: it records every alert event POSTed to
// it and answers 200.
type alertSink struct {
	mu     sync.Mutex
	events []obs.AlertEvent
	srv    *httptest.Server
}

func newAlertSink(t *testing.T) *alertSink {
	t.Helper()
	sink := &alertSink{}
	sink.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev obs.AlertEvent
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		sink.mu.Lock()
		sink.events = append(sink.events, ev)
		sink.mu.Unlock()
	}))
	t.Cleanup(sink.srv.Close)
	return sink
}

func (s *alertSink) firing() []obs.AlertEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []obs.AlertEvent
	for _, ev := range s.events {
		if ev.State == obs.AlertFiring {
			out = append(out, ev)
		}
	}
	return out
}

// unmeetableP99US is a protect p99 objective, in microseconds, that no
// served request can meet, so the SLO breaches however fast the engine is.
const unmeetableP99US = 1

// TestRingPulseAlertIncidentFlow is the pppulse acceptance: breach an
// SLO on one node of a 3-node ring and follow the evidence everywhere
// it should land.
func TestRingPulseAlertIncidentFlow(t *testing.T) {
	sink := newAlertSink(t)

	objectives, err := obs.ParseSLO(fmt.Sprintf("protect:p99<%dus", unmeetableP99US))
	if err != nil {
		t.Fatal(err)
	}
	ringNodeSetup = func(tb testing.TB, nd *ringTestNode, s *server) {
		s.slo = obs.NewSLOEngine(objectives, time.Minute)
		if err := s.setupPulse(pulseConfig{
			Interval:      50 * time.Millisecond,
			Retention:     time.Minute,
			SLOFor:        600 * time.Millisecond,
			AlertDebounce: 10 * time.Minute, // long: re-notification would break exactly-once
			WebhookURL:    sink.srv.URL,
			IncidentDir:   tb.TempDir(),
			CPUProfileDur: -1, // CPU profiling is process-global; 3 nodes share this process
		}); err != nil {
			tb.Fatalf("setupPulse %s: %v", nd.id, err)
		}
		tb.Cleanup(s.closePulse)
	}
	t.Cleanup(func() { ringNodeSetup = nil })

	nodes := startRing(t, 3, 1, "")

	// Drive protect traffic into the owner's home node only, so exactly
	// one node observes the route and exactly one alert instance exists.
	owner := ownerHomedOn(t, nodes, "n1", 0)
	home := nodeByID(t, nodes, "n1")
	csvBody, _ := testCSV(t, 300, 1)
	_, tok := uploadDataset(t, home.srv, owner, "d", "", "", csvBody)

	// Rates and percentiles are derived from deltas between consecutive
	// samples, so traffic landing entirely before the sampler's first
	// snapshot is baseline, not a step — wait for a sample, then spread
	// the burst across several sampling windows. Few requests after
	// that: the pending window is only SLOFor long, and a longer traffic
	// loop could outlast it.
	waitUntil(t, 5*time.Second, "first pulse sample on n1", func() bool {
		return home.s.localSnapshot()["pulse_samples_total"] >= 1
	})
	for i := 0; i < 10; i++ {
		resp, rel := postAuth(t, home.srv.URL+"/v1/protect?owner="+owner+"&seed=3", tok, csvBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("protect %d: %d %s", i, resp.StatusCode, rel)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The alert must pass through pending before firing: with a 600ms
	// hold over 50ms samples the intermediate state is observable.
	c1 := ppclient.New(home.srv.URL, "watcher")
	sawPending := false
	waitUntil(t, 10*time.Second, "slo alert firing on n1", func() bool {
		list, err := c1.Alerts(t.Context(), false)
		if err != nil {
			return false
		}
		for _, a := range list.Alerts {
			if a.Kind != "slo" {
				continue
			}
			switch a.State {
			case "pending":
				sawPending = true
			case "firing":
				return true
			}
		}
		return false
	})
	if !sawPending {
		t.Error("alert fired without an observable pending state")
	}

	// Cluster scope: every node answers with the firing alert, labelled
	// with the node that evaluated it.
	for _, nd := range nodes {
		c := ppclient.New(nd.srv.URL, "watcher")
		list, err := c.Alerts(t.Context(), true)
		if err != nil {
			t.Fatalf("alerts via %s: %v", nd.id, err)
		}
		if len(list.PeerErrors) != 0 {
			t.Fatalf("alerts via %s: peer errors %v", nd.id, list.PeerErrors)
		}
		found := false
		for _, a := range list.Alerts {
			if a.Kind == "slo" && a.State == "firing" && a.Node == "n1" {
				found = true
			}
		}
		if !found || !list.Enabled || len(list.Nodes) != 3 {
			t.Fatalf("alerts via %s = %+v, want n1's firing slo alert", nd.id, list)
		}
	}

	// Exactly one webhook notification: the firing crossed once, the
	// debounce swallows everything after.
	waitUntil(t, 10*time.Second, "webhook notification", func() bool {
		return len(sink.firing()) >= 1
	})
	time.Sleep(300 * time.Millisecond) // several more samples: a duplicate would land here
	if got := sink.firing(); len(got) != 1 {
		t.Fatalf("webhook got %d firing notifications, want exactly 1: %+v", len(got), got)
	} else if got[0].Node != "n1" || got[0].Kind != "slo" {
		t.Fatalf("webhook event = %+v", got[0])
	}

	// The flight recorder captured one bundle on the firing node, with a
	// goroutine dump and trace IDs that resolve against the trace API.
	var incidents []ppclient.Incident
	waitUntil(t, 10*time.Second, "incident bundle on n1", func() bool {
		enabled, incs, err := c1.Incidents(t.Context())
		if err != nil || !enabled || len(incs) == 0 {
			return false
		}
		incidents = incs
		return true
	})
	inc := incidents[0]
	if !strings.HasPrefix(inc.Rule, "slo:") || inc.Node != "n1" {
		t.Fatalf("incident = %+v", inc)
	}
	hasFile := func(name string) bool {
		for _, f := range inc.Files {
			if f == name {
				return true
			}
		}
		return false
	}
	for _, f := range []string{"meta.json", "goroutines.txt", "traces.json", "history.json"} {
		if !hasFile(f) {
			t.Errorf("incident bundle lacks %s (files: %v, notes: %v)", f, inc.Files, inc.Notes)
		}
	}
	dump, err := c1.IncidentFile(t.Context(), inc.ID, "goroutines.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "goroutine") {
		t.Fatalf("goroutines.txt does not look like a dump: %.120q", dump)
	}
	if len(inc.TraceIDs) == 0 {
		t.Fatal("incident captured no trace IDs")
	}
	if resp, body := getJSON(t, home.srv.URL+"/v1/traces/"+inc.TraceIDs[0], "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("incident trace %s does not resolve: %d %s", inc.TraceIDs[0], resp.StatusCode, body)
	}

	// Metrics history shows the protect latency series over the
	// threshold — the evidence an operator would graph.
	hist, err := c1.MetricsHistory(t.Context(), ppclient.HistoryFilter{
		Series: []string{"http_request_duration_us_p99"},
	})
	if err != nil {
		t.Fatal(err)
	}
	over := false
	for _, hs := range hist.Series {
		if !strings.Contains(hs.Name, `route="POST /v1/protect"`) {
			continue
		}
		for _, p := range hs.Points {
			if p.V > unmeetableP99US {
				over = true
			}
		}
	}
	if !over {
		t.Fatalf("no p99 point over %dµs for the protect route in %+v", unmeetableP99US, hist.Series)
	}

	// Cluster-scope history carries node labels from every node.
	cl, err := c1.MetricsHistory(t.Context(), ppclient.HistoryFilter{
		Series:  []string{"http_request_duration_us_p99"},
		Cluster: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Nodes) != 3 || len(cl.PeerErrors) != 0 {
		t.Fatalf("cluster history nodes = %v, errors = %v", cl.Nodes, cl.PeerErrors)
	}
	labelled := false
	for _, hs := range cl.Series {
		if strings.Contains(hs.Name, `node="n1"`) && strings.Contains(hs.Name, `route="POST /v1/protect"`) {
			labelled = true
		}
	}
	if !labelled {
		t.Fatal("cluster history lacks n1's node-labelled protect series")
	}
}

// pulseTestServer is a single-node daemon with the pulse plane up.
func pulseTestServer(t *testing.T, cfg pulseConfig) (*httptest.Server, *server) {
	t.Helper()
	s := newServerWith(t, engine.New(4, 1024), keyring.NewMemory())
	if err := s.setupPulse(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.closePulse)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func TestPulseHistoryQueryValidation(t *testing.T) {
	ts, _ := pulseTestServer(t, pulseConfig{Interval: time.Hour})
	for _, q := range []string{
		"since=nope", "step=0", "step=banana", "agg=median", "max_series=0", "scope=galaxy",
	} {
		resp, body := getJSON(t, ts.URL+"/v1/metrics/history?"+q, "", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d %s, want 400", q, resp.StatusCode, body)
		}
	}
	// A valid query on a quiet node answers with an empty series list.
	var view historyView
	resp, body := getJSON(t, ts.URL+"/v1/metrics/history?series=nothing&since=5m&step=30s&agg=max", "", &view)
	if resp.StatusCode != http.StatusOK || len(view.Series) != 0 {
		t.Fatalf("valid query: %d %s", resp.StatusCode, body)
	}
	if view.IntervalMs != int64(time.Hour/time.Millisecond) {
		t.Errorf("interval_ms = %d", view.IntervalMs)
	}
}

// TestPulseDisabledPlane: a daemon without setupPulse answers the whole
// surface gracefully instead of crashing on nil engines.
func TestPulseDisabledPlane(t *testing.T) {
	ts, _ := newTestServer(t)

	var hist historyView
	if resp, body := getJSON(t, ts.URL+"/v1/metrics/history", "", &hist); resp.StatusCode != http.StatusOK {
		t.Fatalf("history: %d %s", resp.StatusCode, body)
	}
	if len(hist.Series) != 0 {
		t.Fatalf("history on a pulseless daemon = %+v", hist.Series)
	}

	var alerts alertsView
	if resp, body := getJSON(t, ts.URL+"/v1/alerts", "", &alerts); resp.StatusCode != http.StatusOK {
		t.Fatalf("alerts: %d %s", resp.StatusCode, body)
	}
	if alerts.Enabled || len(alerts.Alerts) != 0 {
		t.Fatalf("alerts on a pulseless daemon = %+v", alerts)
	}

	var incs struct {
		Enabled bool `json:"enabled"`
	}
	if resp, body := getJSON(t, ts.URL+"/v1/incidents", "", &incs); resp.StatusCode != http.StatusOK || incs.Enabled {
		t.Fatalf("incidents: %d %s enabled=%v", resp.StatusCode, body, incs.Enabled)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/incidents/any", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("incident get without recorder: %d, want 404", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/incidents/any/files/meta.json", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("incident file without recorder: %d, want 404", resp.StatusCode)
	}
}

// TestPulseIncidentNotFound: a live recorder still 404s cleanly on
// unknown bundles and on path-escape attempts.
func TestPulseIncidentNotFound(t *testing.T) {
	ts, _ := pulseTestServer(t, pulseConfig{
		Interval:    time.Hour,
		IncidentDir: t.TempDir(),
	})
	for _, p := range []string{
		"/v1/incidents/nope",
		"/v1/incidents/nope/files/meta.json",
		"/v1/incidents/" + "%2e%2e" + "/files/meta.json",
	} {
		resp, _ := getJSON(t, ts.URL+p, "", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", p, resp.StatusCode)
		}
	}
}

// TestPulseGaugesExposed: the sampler and alert engine publish their
// own health on the ordinary metrics surface, and the runtime gauges
// ride along.
func TestPulseGaugesExposed(t *testing.T) {
	rules, err := obs.ParseAlertRules("jobs_queued>1000 for 1s")
	if err != nil {
		t.Fatal(err)
	}
	ts, s := pulseTestServer(t, pulseConfig{Interval: 50 * time.Millisecond, AlertRules: rules})
	s.pulse.SampleNow()

	var snap map[string]float64
	if resp, body := getJSON(t, ts.URL+"/v1/metrics", "", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	for _, k := range []string{
		"pulse_series", "pulse_interval_ms", "alerts_firing", "alerts_pending",
		"go_goroutines", "go_heap_alloc_bytes",
	} {
		if _, ok := snap[k]; !ok {
			t.Errorf("metrics snapshot lacks %s", k)
		}
	}
	if snap["pulse_interval_ms"] != 50 {
		t.Errorf("pulse_interval_ms = %g", snap["pulse_interval_ms"])
	}
	if snap["go_goroutines"] <= 0 {
		t.Errorf("go_goroutines = %g", snap["go_goroutines"])
	}
}
