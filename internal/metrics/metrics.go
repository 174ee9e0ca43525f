// Package metrics is a minimal expvar-style registry for the serving
// daemon: named monotonic counters and fixed-bucket histograms, created on
// first touch, safe for concurrent use, snapshotted as a flat name → value
// map. Names follow the Prometheus text convention
// (`base_total{label="v"}`, `base_bucket{label="v",le="10"}`) so a scrape
// adapter stays a string-concatenation away. Gauges that derive from live
// subsystem state (queue depths, pool occupancy) are composed into the
// snapshot by the handler that owns those subsystems.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a bounded, fixed-bucket distribution: observations land in
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf overflow bucket. Memory is fixed at creation (len(bounds)+1
// atomics), so per-route latency tracking stays O(routes × buckets) no
// matter the traffic. Safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	// sum accumulates as float64 bits under CAS so Snapshot can report a
	// faithful total without a lock on the observe path.
	sum atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Registry holds named counters and histograms. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it at zero on first use.
// Callers that increment on a hot path should hold on to the returned
// pointer instead of re-resolving the name per event.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram with the given bucket upper
// bounds (ascending), creating it on first use. Later calls for the same
// name return the existing histogram regardless of bounds, so callers
// should resolve a histogram once and reuse the pointer, like counters.
// The name may carry Prometheus-style labels (`base{route="..."}`); the
// snapshot splices the le label in correctly either way.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns every counter's current value keyed by name, plus each
// histogram expanded into cumulative `_bucket{le="..."}` series and its
// `_count` and `_sum` (the sum truncated to int64 to fit the flat map).
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters)+len(r.histograms)*8)
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, h := range r.histograms {
		base, labels := splitLabels(name)
		var cum int64
		for i := range h.counts {
			cum += h.counts[i].Load()
			bound := math.Inf(1)
			if i < len(h.bounds) {
				bound = h.bounds[i]
			}
			out[BucketName(base, labels, bound)] = cum
		}
		out[JoinName(base+"_count", labels)] = h.Count()
		out[JoinName(base+"_sum", labels)] = int64(h.Sum())
	}
	return out
}

// BucketCount is one cumulative histogram bucket: the count of
// observations <= UpperBound (math.Inf(1) for the overflow bucket).
type BucketCount struct {
	UpperBound float64
	Count      int64
}

// Names returns the registered counter and histogram names in sorted
// order, for stable test output and human-readable dumps.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters)+len(r.histograms))
	for name := range r.counters {
		out = append(out, name)
	}
	for name := range r.histograms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
