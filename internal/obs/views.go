package obs

// The JSON bodies of the observability routes, declared once: the
// daemon serves these types and ppclient decodes into them. A cluster
// view answers for every ring node it could ask; the peers it could
// not ask are named in PeerErrors (ScrapeErrors for cluster metrics),
// and the view is still served.

// TraceView is the GET /v1/traces/{id} body: the per-node records
// (spans stripped) plus the single stitched cross-node span tree.
type TraceView struct {
	ID         string            `json:"id"`
	Nodes      []TraceRecord     `json:"nodes"`
	PeerErrors map[string]string `json:"peer_errors,omitempty"`
	Spans      *SpanNode         `json:"spans"`
}

// TraceList is the GET /v1/traces body: this node's retained traces,
// newest first, as summaries without their span trees.
type TraceList struct {
	Traces []TraceRecord `json:"traces"`
}

// IncidentList is the GET /v1/incidents body: this node's captured
// bundles, newest first. Enabled is false when the node runs without an
// incident directory.
type IncidentList struct {
	Enabled   bool           `json:"enabled"`
	Incidents []IncidentMeta `json:"incidents"`
}

// ClusterMetrics is the GET /v1/cluster/metrics JSON body: counters and
// histograms summed across every reachable node, gauges labelled per
// node (metrics.MergeSnapshots).
type ClusterMetrics struct {
	Nodes        []string          `json:"nodes"`
	ScrapeErrors map[string]string `json:"scrape_errors,omitempty"`
	Metrics      map[string]int64  `json:"metrics"`
}

// SLOReport is the GET /v1/slo body: per-objective states, worst first;
// Status is the worst state overall ("ok", "warning" or "breach").
// Without configured objectives it is {"enabled": false, "status": "ok"}.
type SLOReport struct {
	Enabled    bool        `json:"enabled"`
	WindowS    float64     `json:"window_s,omitempty"`
	Status     string      `json:"status"`
	Objectives []SLOStatus `json:"objectives,omitempty"`
}

// HistoryView is the GET /v1/metrics/history body: the sampler's
// retained series. Counter series carry a ":rate" base suffix
// (per-second), histogram series a "_p50"/"_p95"/"_p99" per-step
// percentile suffix; gauges keep their registry names. In cluster
// scope, series names carry a node label and Nodes lists every node
// that answered.
type HistoryView struct {
	IntervalMs int64             `json:"interval_ms"`
	Nodes      []string          `json:"nodes,omitempty"`
	PeerErrors map[string]string `json:"peer_errors,omitempty"`
	Truncated  bool              `json:"truncated,omitempty"`
	Series     []HistorySeries   `json:"series"`
}

// AlertList is the GET /v1/alerts body: firing first, then pending,
// then recently resolved (in cluster scope: by rule, node and series).
// Enabled is false when the answering node (in cluster scope: every
// node) has no alert rules and no SLOs configured.
type AlertList struct {
	Enabled    bool              `json:"enabled"`
	Nodes      []string          `json:"nodes,omitempty"`
	PeerErrors map[string]string `json:"peer_errors,omitempty"`
	Alerts     []Alert           `json:"alerts"`
}
