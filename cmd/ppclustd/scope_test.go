package main

// ppscope acceptance: the trace query API on a single node, the 3-node
// stitched cross-ring trace (queryable from any node, including a
// bystander), cluster-wide metrics aggregation with a dead-peer partial
// response, and the SLO endpoint plus its gauges.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ppclust/internal/obs"
	"ppclust/ppclient"
)

func scopeGet(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

// pinnedRequest issues req-style POST with a client-chosen trace ID.
func pinnedRequest(t *testing.T, url, trace, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(ppclient.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestTraceQueryAPI exercises the single-node trace store surface:
// every finished request is retained (test servers sample at 1.0),
// listable with filters and fetchable by ID with its span tree.
func TestTraceQueryAPI(t *testing.T) {
	ts, _ := newTestServer(t)
	csv, _ := testCSV(t, 40, 7)

	const trace = "scope-api-0001"
	if resp := pinnedRequest(t, ts.URL+"/v1/datasets?owner=alice&name=d1", trace, csv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}

	// The record lands in a deferred wrapper after the response; poll.
	var view obs.TraceView
	waitUntil(t, 3*time.Second, "trace retained", func() bool {
		return scopeGet(t, ts.URL+"/v1/traces/"+trace, &view) == http.StatusOK
	})
	if view.ID != trace || len(view.Nodes) != 1 || view.Nodes[0].Route != "POST /v1/datasets" {
		t.Fatalf("trace view = %+v", view)
	}
	if view.Spans == nil || view.Spans.Name != "http" {
		t.Fatalf("trace view has no span tree: %+v", view.Spans)
	}
	if view.Nodes[0].Spans != nil {
		t.Error("per-node records must not duplicate the span payload")
	}

	var listing obs.TraceList
	if scopeGet(t, ts.URL+"/v1/traces", &listing) != http.StatusOK || len(listing.Traces) == 0 {
		t.Fatalf("listing = %+v", listing)
	}
	for _, rec := range listing.Traces {
		if rec.Spans != nil {
			t.Fatal("listing must strip span payloads")
		}
	}
	// Filters: a route substring that matches nothing, and a min_ms above
	// any realistic in-process upload.
	if scopeGet(t, ts.URL+"/v1/traces?route=federations", &listing) != http.StatusOK || len(listing.Traces) != 0 {
		t.Errorf("route filter leaked: %+v", listing.Traces)
	}
	if scopeGet(t, ts.URL+"/v1/traces?route=datasets&limit=1", &listing) != http.StatusOK || len(listing.Traces) != 1 {
		t.Errorf("limit filter: %+v", listing.Traces)
	}
	if scopeGet(t, ts.URL+"/v1/traces?min_ms=60000", &listing) != http.StatusOK || len(listing.Traces) != 0 {
		t.Errorf("min_ms filter leaked: %+v", listing.Traces)
	}

	if got := scopeGet(t, ts.URL+"/v1/traces/no-such-trace-id", nil); got != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", got)
	}
	if got := scopeGet(t, ts.URL+"/v1/traces/bad%20id%21", nil); got != http.StatusBadRequest {
		t.Errorf("invalid trace id: status %d, want 400", got)
	}
	if got := scopeGet(t, ts.URL+"/v1/traces?limit=-3", nil); got != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", got)
	}
}

// findSpanNode walks a span tree depth-first for a span name.
func findSpanNode(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if got := findSpanNode(c, name); got != nil {
			return got
		}
	}
	return nil
}

func spanAttr(n *obs.SpanNode, key string) string {
	for _, a := range n.Attrs {
		if a.Key == key {
			if s, ok := a.Value.(string); ok {
				return s
			}
		}
	}
	return ""
}

// TestRingTraceStitchedQuery is the tentpole acceptance: a pinned trace
// ID on a forwarded request is queryable from ANY node of a 3-node ring
// and returns a single stitched span tree — the entry node's
// ring.forward span with the home node's handler spans grafted under it.
func TestRingTraceStitchedQuery(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	owner := ownerHomedOn(t, nodes, "n1", 0)
	entry := entryAvoiding(t, nodes, owner)
	home := nodeByID(t, nodes, "n1")
	const trace = "stitch-e2e-0001"

	csv, _ := testCSV(t, 40, 7)
	if resp := pinnedRequest(t, entry.addr+"/v1/datasets?owner="+owner+"&name=d1", trace, csv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload via %s: %d", entry.id, resp.StatusCode)
	}

	// Every node must answer for the whole ring, including the bystander
	// that neither received nor served the request. Records land in
	// deferred wrappers on two different nodes; poll until both appear.
	for _, nd := range nodes {
		var view obs.TraceView
		waitUntil(t, 5*time.Second, "stitched trace on "+nd.id, func() bool {
			return scopeGet(t, nd.addr+"/v1/traces/"+trace, &view) == http.StatusOK && len(view.Nodes) == 2
		})
		if len(view.PeerErrors) != 0 {
			t.Fatalf("query via %s: peer errors %v", nd.id, view.PeerErrors)
		}
		seen := map[string]string{}
		for _, rec := range view.Nodes {
			seen[rec.Node] = rec.Route
		}
		if seen[entry.id] != "ring.forward" {
			t.Fatalf("query via %s: entry record = %+v", nd.id, seen)
		}
		if seen[home.id] != "POST /v1/datasets" {
			t.Fatalf("query via %s: home record = %+v", nd.id, seen)
		}

		// One tree: the entry node's root, its ring.forward span, and the
		// home node's ingest spans grafted beneath it.
		fwd := findSpanNode(view.Spans, "ring.forward")
		if fwd == nil {
			t.Fatalf("query via %s: no ring.forward span:\n%+v", nd.id, view.Spans)
		}
		if findSpanNode(fwd, "ingest") == nil {
			t.Fatalf("query via %s: home node's ingest span not under ring.forward", nd.id)
		}
		var grafted *obs.SpanNode
		for _, c := range fwd.Children {
			if spanAttr(c, "node") == home.id {
				grafted = c
			}
		}
		if grafted == nil {
			t.Fatalf("query via %s: grafted subtree missing node=%s annotation", nd.id, home.id)
		}
		if spanAttr(view.Spans, "node") != entry.id {
			t.Fatalf("query via %s: root not annotated with entry node", nd.id)
		}
	}
}

// TestClusterMetricsAggregation checks the all-node aggregate: summed
// counters equal the per-node registry sums, gauges come back
// node-labelled, the Prometheus rendering works, and killing a node
// degrades the response to a partial aggregate with scrape_errors.
func TestClusterMetricsAggregation(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	csv, _ := testCSV(t, 40, 7)

	// Spread uploads across owners homed on each node so every registry
	// has non-zero ingest counts.
	from := 0
	for _, nd := range nodes {
		owner := ownerHomedOn(t, nodes, nd.id, from)
		from += 2500
		resp, body := post(t, nodes[0].addr+"/v1/datasets?owner="+owner+"&name=d", csv)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload for %s: %d %s", nd.id, resp.StatusCode, body)
		}
	}
	var wantRows int64
	for _, nd := range nodes {
		wantRows += nd.s.localSnapshot()["rows_ingested_total"]
	}
	if wantRows == 0 {
		t.Fatal("no rows ingested anywhere")
	}

	var view obs.ClusterMetrics
	if got := scopeGet(t, nodes[1].addr+"/v1/cluster/metrics", &view); got != http.StatusOK {
		t.Fatalf("cluster metrics: status %d", got)
	}
	if strings.Join(view.Nodes, ",") != "n1,n2,n3" {
		t.Fatalf("nodes = %v", view.Nodes)
	}
	if len(view.ScrapeErrors) != 0 {
		t.Fatalf("scrape errors on a healthy ring: %v", view.ScrapeErrors)
	}
	if got := view.Metrics["rows_ingested_total"]; got != wantRows {
		t.Errorf("aggregated rows_ingested_total = %d, want %d", got, wantRows)
	}
	// Gauges are per-node, never summed.
	if _, ok := view.Metrics[`obs_trace_store_traces{node="n2"}`]; !ok {
		t.Errorf("no node-labelled trace-store gauge in %d series", len(view.Metrics))
	}
	if _, ok := view.Metrics["obs_trace_store_traces"]; ok {
		t.Error("bare gauge leaked into the aggregate")
	}

	// Prometheus rendering of the same aggregate.
	resp, err := http.Get(nodes[1].addr + "/v1/cluster/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	promText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(promText), "# TYPE rows_ingested_total counter") {
		t.Fatalf("prometheus format: %d\n%.400s", resp.StatusCode, promText)
	}
	if !strings.Contains(string(promText), "cluster_nodes_scraped 3") {
		t.Error("prometheus aggregate must carry cluster_nodes_scraped")
	}
	if got := scopeGet(t, nodes[1].addr+"/v1/cluster/metrics?format=xml", nil); got != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", got)
	}

	// Kill n3: the aggregate over the survivors is still served, with the
	// dead peer named in scrape_errors.
	stopRingNode(nodes[2])
	var partial obs.ClusterMetrics
	if got := scopeGet(t, nodes[0].addr+"/v1/cluster/metrics", &partial); got != http.StatusOK {
		t.Fatalf("partial cluster metrics: status %d", got)
	}
	if strings.Join(partial.Nodes, ",") != "n1,n2" {
		t.Fatalf("partial nodes = %v", partial.Nodes)
	}
	if _, ok := partial.ScrapeErrors["n3"]; !ok {
		t.Fatalf("dead peer not reported: %v", partial.ScrapeErrors)
	}
	if partial.Metrics["rows_ingested_total"] >= wantRows && wantRows > nodes[0].s.localSnapshot()["rows_ingested_total"]+nodes[1].s.localSnapshot()["rows_ingested_total"] {
		t.Error("partial aggregate still counts the dead node")
	}
}

// TestClusterViewsDegradeWithDeadPeer: with one node of a 3-node ring
// stopped, the trace view and the cluster-scope history and alerts
// still answer 200 from either survivor, naming the dead node in
// peer_errors. A live peer without a record of the trace (404) is
// neither a record nor an error.
func TestClusterViewsDegradeWithDeadPeer(t *testing.T) {
	nodes := startRing(t, 3, 0, "")
	owner := ownerHomedOn(t, nodes, "n1", 0)
	const trace = "degraded-view-0001"
	csv, _ := testCSV(t, 40, 7)
	if resp := pinnedRequest(t, nodes[0].addr+"/v1/datasets?owner="+owner+"&name=d1", trace, csv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}
	waitUntil(t, 5*time.Second, "trace retained on n1", func() bool {
		_, ok := nodes[0].s.traces.Get(trace)
		return ok
	})
	stopRingNode(nodes[2])

	onlyDead := func(via string, errs map[string]string) {
		t.Helper()
		if _, ok := errs["n3"]; !ok || len(errs) != 1 {
			t.Fatalf("%s: peer_errors = %v, want only n3", via, errs)
		}
	}
	for _, nd := range nodes[:2] {
		var view obs.TraceView
		if got := scopeGet(t, nd.addr+"/v1/traces/"+trace, &view); got != http.StatusOK {
			t.Fatalf("trace via %s: status %d", nd.id, got)
		}
		onlyDead("trace via "+nd.id, view.PeerErrors)
		if len(view.Nodes) != 1 || view.Nodes[0].Node != "n1" {
			t.Fatalf("trace via %s: records = %+v, want n1's alone", nd.id, view.Nodes)
		}

		var hist obs.HistoryView
		if got := scopeGet(t, nd.addr+"/v1/metrics/history?scope=cluster", &hist); got != http.StatusOK {
			t.Fatalf("cluster history via %s: status %d", nd.id, got)
		}
		onlyDead("cluster history via "+nd.id, hist.PeerErrors)
		if strings.Join(hist.Nodes, ",") != "n1,n2" {
			t.Fatalf("cluster history via %s: nodes = %v", nd.id, hist.Nodes)
		}

		var alerts obs.AlertList
		if got := scopeGet(t, nd.addr+"/v1/alerts?scope=cluster", &alerts); got != http.StatusOK {
			t.Fatalf("cluster alerts via %s: status %d", nd.id, got)
		}
		onlyDead("cluster alerts via "+nd.id, alerts.PeerErrors)
		if strings.Join(alerts.Nodes, ",") != "n1,n2" {
			t.Fatalf("cluster alerts via %s: nodes = %v", nd.id, alerts.Nodes)
		}
	}
}

// TestSLOEndpoint drives a configured engine to a deliberate breach
// (p50<0 is unsatisfiable) next to a healthy error objective, and
// checks both the /v1/slo report and the slo_* gauges on /v1/metrics.
func TestSLOEndpoint(t *testing.T) {
	ts, s := newTestServer(t)
	if err := s.setupScope(scopeConfig{
		TraceSample: 1,
		SLOSpecs:    []string{"datasets:p50<0", "err<99%"},
	}); err != nil {
		t.Fatal(err)
	}

	csv, _ := testCSV(t, 40, 7)
	for i := 0; i < 3; i++ {
		// Distinct owners: a second upload under one owner needs its token.
		resp, body := post(t, ts.URL+"/v1/datasets?owner=alice"+string(rune('a'+i))+"&name=d", csv)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %d: %d %s", i, resp.StatusCode, body)
		}
	}

	var report obs.SLOReport
	waitUntil(t, 3*time.Second, "slo observations", func() bool {
		return scopeGet(t, ts.URL+"/v1/slo", &report) == http.StatusOK &&
			len(report.Objectives) == 2 && report.Objectives[0].Requests >= 3
	})
	if !report.Enabled || report.Status != obs.SLOStateBreach {
		t.Fatalf("report = %+v", report)
	}
	// Worst first: the unsatisfiable latency objective leads.
	if report.Objectives[0].Objective != "datasets:p50<0" || report.Objectives[0].State != obs.SLOStateBreach {
		t.Fatalf("first objective = %+v", report.Objectives[0])
	}
	if report.Objectives[1].Kind != "error" || report.Objectives[1].State != obs.SLOStateOK {
		t.Fatalf("second objective = %+v", report.Objectives[1])
	}

	var snap map[string]int64
	if scopeGet(t, ts.URL+"/v1/metrics", &snap) != http.StatusOK {
		t.Fatal("metrics endpoint failed")
	}
	if snap[`slo_state{objective="datasets:p50<0"}`] != 2 {
		t.Errorf("slo_state gauge = %d, want 2", snap[`slo_state{objective="datasets:p50<0"}`])
	}
	if snap["slo_breaching"] != 1 {
		t.Errorf("slo_breaching = %d, want 1", snap["slo_breaching"])
	}
}

// TestSLOEndpointOverflowQuantile: a latency past the top SLO bucket
// (10 s) reports observed_ms at that bound. An unbounded estimate would
// be +Inf, which encoding/json refuses after the 200 has gone out,
// leaving an empty body.
func TestSLOEndpointOverflowQuantile(t *testing.T) {
	ts, s := newTestServer(t)
	if err := s.setupScope(scopeConfig{SLOSpecs: []string{"protect:p99<100ms"}}); err != nil {
		t.Fatal(err)
	}
	s.slo.Observe("POST /v1/protect", 20000, false)
	var report obs.SLOReport
	if code := scopeGet(t, ts.URL+"/v1/slo", &report); code != http.StatusOK {
		t.Fatalf("slo endpoint answered %d", code)
	}
	if len(report.Objectives) != 1 || report.Objectives[0].ObservedMs != 10000 {
		t.Fatalf("report = %+v, want one objective observing 10000 ms", report)
	}
}

// TestSLOEndpointDisabled: without -slo the report is a benign
// enabled:false, not an error.
func TestSLOEndpointDisabled(t *testing.T) {
	ts, _ := newTestServer(t)
	var report obs.SLOReport
	if scopeGet(t, ts.URL+"/v1/slo", &report) != http.StatusOK {
		t.Fatal("slo endpoint failed")
	}
	if report.Enabled || report.Status != obs.SLOStateOK || len(report.Objectives) != 0 {
		t.Fatalf("disabled report = %+v", report)
	}
}
