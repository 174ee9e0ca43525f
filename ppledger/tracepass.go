package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ppclust/internal/obs"
)

// A traced daemon keeps every request's trace, at most 4096 per node,
// evicting the oldest first. Capping the requests of the traced warm-up
// and phase, and the traces fetched afterwards (each fetch is a request
// too), keeps every node's store below that limit at any throughput, so
// nothing is evicted before it is read.
const (
	tracedWarmupRequests = 300
	tracedRequests       = 2500
	traceCap             = 600
)

// traceView is the part of GET /v1/traces/{id} the benchmark reads.
type traceView struct {
	Nodes []struct {
		Start time.Time `json:"start"`
	} `json:"nodes"`
	Spans *obs.SpanNode `json:"spans"`
}

// opTrace is one traced operation: its sample and the client span with
// the stitched server tree grafted underneath.
type opTrace struct {
	s    *sample
	tree *obs.SpanNode
}

// fetchTraces fetches the server trees of up to traceCap successful
// traced operations, spread evenly over the phase, and grafts each under
// its client span.
func (d *deployment) fetchTraces(ctx context.Context, p phase) ([]opTrace, error) {
	var ok []*sample
	for _, s := range p.samples {
		if s.err == nil && s.trace != nil {
			ok = append(ok, s)
		}
	}
	step := max(1, (len(ok)+traceCap-1)/traceCap)
	var out []opTrace
	var buf bytes.Buffer
	for i := 0; i < len(ok); i += step {
		s := ok[i]
		view, err := d.fetchTrace(ctx, &buf, d.owners[s.owner].entry, s.trace.ID())
		if err != nil {
			return nil, err
		}
		start := view.Nodes[0].Start
		for _, n := range view.Nodes[1:] {
			if n.Start.Before(start) {
				start = n.Start
			}
		}
		out = append(out, opTrace{s: s, tree: graft(s.trace.Tree(), s.start, view.Spans, start)})
	}
	return out, nil
}

// fetchTrace reads one stitched trace, retrying briefly: a node stores a
// trace only after the response has gone out.
func (d *deployment) fetchTrace(ctx context.Context, buf *bytes.Buffer, entry, id string) (traceView, error) {
	for attempt := 0; ; attempt++ {
		rep, err := d.call(ctx, buf, http.MethodGet, entry+"/v1/traces/"+id, "", nil, "", "")
		if err != nil {
			return traceView{}, err
		}
		if rep.status == http.StatusOK {
			var v traceView
			if err := json.Unmarshal(rep.body, &v); err != nil {
				return traceView{}, fmt.Errorf("trace %s: %w", id, err)
			}
			if v.Spans == nil || len(v.Nodes) == 0 {
				return traceView{}, fmt.Errorf("trace %s: empty view", id)
			}
			return v, nil
		}
		if rep.status != http.StatusNotFound || attempt == 40 {
			return traceView{}, fmt.Errorf("trace %s: %s", id, rep.describe())
		}
		select {
		case <-ctx.Done():
			return traceView{}, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// traceLayers reduces the traced operations to per-layer means. Server
// spans carry whole microseconds, so a mean keeps digits a median would
// round away. A metric is present only when some operation crossed its
// layer.
func traceLayers(traces []opTrace) map[string]float64 {
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for _, t := range traces {
		op := t.s.op
		httpSelf, _ := sumSelf(t.tree, "http")
		switch op {
		case opProtect, opFit:
			add("http.protect_self_ms", float64(httpSelf)/1e3)
		case opRead:
			add("http.read_self_ms", float64(httpSelf)/1e3)
		}
		// A cluster operation spans several requests; only its submission
		// is traced, so its client gap would count the whole job.
		if op != opCluster {
			if h := firstNamed(t.tree, "http"); h != nil {
				add("http.client_gap_ms", float64(t.tree.DurUs-h.DurUs)/1e3)
			}
		}
		auth, _ := sumDur(t.tree, "auth")
		add("auth.us", float64(auth))
		if fwd, ok := sumSelf(t.tree, "ring.forward"); ok {
			add("ring.forward_self_ms", float64(fwd)/1e3)
		}
		if op == opUpload {
			if us, ok := sumDur(t.tree, "ingest"); ok {
				add("service.ingest_ms", float64(us)/1e3)
			}
		}
		if op == opFit {
			for span, name := range map[string]string{
				"engine.normalize": "engine.normalize_ms",
				"engine.rotate":    "engine.rotate_ms",
				"keyring.put":      "keyring.put_ms",
			} {
				if us, ok := sumDur(t.tree, span); ok {
					add(name, float64(us)/1e3)
				}
			}
		}
	}
	out := map[string]float64{}
	for name, v := range vals {
		out[name] = mean(v)
	}
	return out
}

// traceRecord is one line of the -trace-out file.
type traceRecord struct {
	Workload string        `json:"workload"`
	Op       opKind        `json:"op"`
	Owner    int           `json:"owner"`
	Spans    *obs.SpanNode `json:"spans"`
}
