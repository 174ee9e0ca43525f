package ppclient

// Observability-plane (ppscope) client surface: retained traces,
// cluster-wide metrics, SLO status. All four endpoints are ownerless
// and unauthenticated on the daemon; any node of a ring answers for the
// whole cluster.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"ppclust/internal/obs"
)

// The observability views are the daemon's own types (internal/obs),
// so a field the daemon serves is a field the client reads.
type (
	// SpanAttr is one key/value annotation on a span.
	SpanAttr = obs.Attr
	// Span is one node of a trace's span tree. StartUs is the offset
	// from the trace start in microseconds; in a stitched cross-node tree
	// the offsets of grafted subtrees are rebased onto the entry node's
	// clock.
	Span = obs.SpanNode
	// TraceSummary is one retained trace as listed by GET /v1/traces,
	// and one per-node record inside a TraceView (spans stripped).
	TraceSummary = obs.TraceRecord
	// TraceView is GET /v1/traces/{id}: the per-node records plus the
	// single stitched span tree. PeerErrors lists ring peers that could
	// not be asked for their part of the trace.
	TraceView = obs.TraceView
	// ClusterMetrics is GET /v1/cluster/metrics. ScrapeErrors names the
	// nodes the aggregate is missing.
	ClusterMetrics = obs.ClusterMetrics
	// SLOObjective is one objective's live evaluation inside an
	// SLOReport.
	SLOObjective = obs.SLOStatus
	// SLOReport is GET /v1/slo.
	SLOReport = obs.SLOReport
)

// TraceFilter narrows a Traces listing; the zero value lists everything
// (newest first, server-side default limit).
type TraceFilter struct {
	// Route keeps traces whose route label contains this substring.
	Route string
	// MinMs keeps traces at least this slow.
	MinMs float64
	// Limit caps the result count (0: server default).
	Limit int
}

// Trace fetches one retained trace by ID, stitched across the ring when
// the trace crossed nodes. A trace that was sampled out or already
// evicted returns an *APIError with Code "not_found".
func (c *Client) Trace(ctx context.Context, id string) (*TraceView, error) {
	var out TraceView
	if err := c.doJSON(ctx, http.MethodGet, "/v1/traces/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Traces lists retained traces on the answering node, newest first.
func (c *Client) Traces(ctx context.Context, f TraceFilter) ([]TraceSummary, error) {
	q := url.Values{}
	if f.Route != "" {
		q.Set("route", f.Route)
	}
	if f.MinMs > 0 {
		q.Set("min_ms", strconv.FormatFloat(f.MinMs, 'g', -1, 64))
	}
	if f.Limit > 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	path := "/v1/traces"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out obs.TraceList
	if err := c.doJSON(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Traces, nil
}

// ClusterMetrics fetches the cluster-wide metrics aggregate from the
// configured node. A partial aggregate (some peers down) is a success
// with ScrapeErrors set, not an error.
func (c *Client) ClusterMetrics(ctx context.Context) (*ClusterMetrics, error) {
	var out ClusterMetrics
	if err := c.doJSON(ctx, http.MethodGet, "/v1/cluster/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SLOStatus fetches the answering node's SLO evaluation. A daemon
// running without -slo reports Enabled false and Status "ok".
func (c *Client) SLOStatus(ctx context.Context) (*SLOReport, error) {
	var out SLOReport
	if err := c.doJSON(ctx, http.MethodGet, "/v1/slo", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TraceURL renders the ready-to-curl URL for a trace ID against this
// client's daemon — the form pploadgen prints for its slowest ops.
func (c *Client) TraceURL(id string) string {
	return fmt.Sprintf("%s/v1/traces/%s", c.BaseURL, url.PathEscape(id))
}
