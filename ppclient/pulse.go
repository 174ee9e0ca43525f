package ppclient

// pppulse client surface: sampled metrics history, live alerts and
// captured incident bundles. Like the rest of the observability plane
// these endpoints are ownerless and unauthenticated on the daemon, and
// the history and alert listings can answer for the whole ring with
// Scope "cluster".

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ppclust/internal/obs"
)

// The pppulse views are the daemon's own types (internal/obs).
type (
	// HistoryPoint is one sample of a history series: wall-clock
	// milliseconds and the value.
	HistoryPoint = obs.HistoryPoint
	// HistorySeries is one sampled series, points oldest first.
	HistorySeries = obs.HistorySeries
	// MetricsHistory is GET /v1/metrics/history. In cluster scope,
	// PeerErrors names the nodes that did not answer.
	MetricsHistory = obs.HistoryView
	// Alert is one rule instance's live state: "pending" (condition
	// holding but not yet past its 'for' duration), "firing", or
	// "resolved".
	Alert = obs.Alert
	// AlertList is GET /v1/alerts.
	AlertList = obs.AlertList
	// Incident is one captured incident bundle's manifest: the alert
	// that fired it, the evidence files captured, and the trace IDs of
	// the worst requests in the breach window (each resolvable via
	// Trace).
	Incident = obs.IncidentMeta
)

// HistoryFilter narrows a MetricsHistory call; the zero value returns
// every retained series from the answering node.
type HistoryFilter struct {
	// Series keeps series whose name contains any of these substrings
	// (case-insensitive).
	Series []string
	// Since drops points older than this look-back window.
	Since time.Duration
	// Step downsamples to one point per step, folded by Agg.
	Step time.Duration
	// Agg is the downsample fold: "avg" (default), "max", "min" or "last".
	Agg string
	// MaxSeries caps the matched series count (0: server default).
	MaxSeries int
	// Cluster asks for every ring node's history (node-labelled) instead
	// of just the answering node's.
	Cluster bool
}

// MetricsHistory fetches sampled metrics history. A partial cluster
// answer (some peers down) is a success with PeerErrors set.
func (c *Client) MetricsHistory(ctx context.Context, f HistoryFilter) (*MetricsHistory, error) {
	q := url.Values{}
	for _, s := range f.Series {
		q.Add("series", s)
	}
	if f.Since > 0 {
		q.Set("since", f.Since.String())
	}
	if f.Step > 0 {
		q.Set("step", f.Step.String())
	}
	if f.Agg != "" {
		q.Set("agg", f.Agg)
	}
	if f.MaxSeries > 0 {
		q.Set("max_series", strconv.Itoa(f.MaxSeries))
	}
	if f.Cluster {
		q.Set("scope", "cluster")
	}
	path := "/v1/metrics/history"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out MetricsHistory
	if err := c.doJSON(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Alerts fetches live alert instances from the answering node, or from
// every ring node when cluster is true (each alert carries the node
// that evaluated it).
func (c *Client) Alerts(ctx context.Context, cluster bool) (*AlertList, error) {
	path := "/v1/alerts"
	if cluster {
		path += "?scope=cluster"
	}
	var out AlertList
	if err := c.doJSON(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Incidents lists the answering node's captured incident bundles,
// newest first. Enabled is false when the daemon runs without an
// incident directory.
func (c *Client) Incidents(ctx context.Context) (bool, []Incident, error) {
	var out obs.IncidentList
	if err := c.doJSON(ctx, http.MethodGet, "/v1/incidents", nil, &out); err != nil {
		return false, nil, err
	}
	return out.Enabled, out.Incidents, nil
}

// Incident fetches one bundle's manifest by ID.
func (c *Client) Incident(ctx context.Context, id string) (*Incident, error) {
	var out Incident
	if err := c.doJSON(ctx, http.MethodGet, "/v1/incidents/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// IncidentFile downloads one bundle file (goroutines.txt, cpu.pprof,
// traces.json, ...) raw.
func (c *Client) IncidentFile(ctx context.Context, id, name string) ([]byte, error) {
	req, err := c.newRequest(ctx, http.MethodGet,
		"/v1/incidents/"+url.PathEscape(id)+"/files/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}
