package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"ppclust/internal/metrics"
)

// pppulse: an in-memory ring-buffer time-series store over the metrics
// registry. Every interval the sampler takes one flat snapshot (the
// same map /v1/metrics serves) and derives step series from it:
//
//   - counters (`*_total`) become per-second rates (`name:rate`);
//   - histograms become per-step percentiles (`base_p50{labels}`,
//     `_p95`, `_p99`) and a per-second observation rate (`base:rate`),
//     computed from the bucket deltas between consecutive samples so
//     each point describes that step, not the process lifetime;
//   - everything else is a gauge, stored as-is.
//
// Raw `_bucket`/`_count`/`_sum` series are not retained — the derived
// forms answer "when did p99 start climbing?" directly, and dropping
// the bucket matrix is what keeps minutes of history per series inside
// a few megabytes. Values live in fixed slot rings (retention/interval
// slots); a byte budget caps total footprint by refusing new series
// (counted) rather than evicting old ones mid-incident.

// DefaultPulseInterval is the sampling cadence when none is configured.
const DefaultPulseInterval = 10 * time.Second

// DefaultPulseRetention is the history window when none is configured.
const DefaultPulseRetention = 15 * time.Minute

// defaultPulseBytes caps the store when no budget is configured.
const defaultPulseBytes = 4 << 20

// pulseQuantiles are the per-step histogram percentiles the sampler
// derives, matched to the suffix each series carries.
var pulseQuantiles = []struct {
	Suffix string
	Q      float64
}{
	{"_p50", 0.50},
	{"_p95", 0.95},
	{"_p99", 0.99},
}

// PulseConfig bounds and paces a Pulse.
type PulseConfig struct {
	// Interval is the sampling cadence (0: DefaultPulseInterval).
	Interval time.Duration
	// Retention is how far back Query can reach (0: DefaultPulseRetention).
	Retention time.Duration
	// MaxBytes caps the store's approximate footprint (0: 4 MiB). New
	// series past the budget are dropped and counted, existing ones keep
	// recording.
	MaxBytes int64
	// Now overrides the clock (tests).
	Now func() time.Time
	// OnSample, when set, receives every completed sample's derived
	// values — the alert engine's evaluation hook. Called outside the
	// store lock, on the sampler goroutine.
	OnSample func(t time.Time, values map[string]float64)
}

// Pulse is the sampling loop plus the slot-ring store. Construct with
// NewPulse, then Start the loop (or drive SampleNow from tests).
type Pulse struct {
	cfg     PulseConfig
	source  func() map[string]int64
	slots   int
	samples *metrics.Counter
	dropped *metrics.Counter

	mu        sync.Mutex
	epochs    []int64 // epoch held by each slot; -1 when never written
	series    map[string]*pulseSeries
	lastSnap  map[string]int64
	lastHists map[string][]metrics.BucketCount // histogram name{labels} → buckets
	lastTime  time.Time
	lastEpoch int64
	bytes     int64
	droppedN  int64 // distinct series refused by the byte budget

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type pulseSeries struct {
	vals []float64 // slot-indexed; NaN = no sample in that slot
}

// NewPulse builds a store sampling source (a flat snapshot provider in
// the registry's naming convention), registering its counters on reg
// (nil: counters kept private). Call Start to begin sampling.
func NewPulse(cfg PulseConfig, source func() map[string]int64, reg *metrics.Registry) *Pulse {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultPulseInterval
	}
	if cfg.Retention <= 0 {
		cfg.Retention = DefaultPulseRetention
	}
	if cfg.Retention < cfg.Interval {
		cfg.Retention = cfg.Interval
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultPulseBytes
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	slots := int(cfg.Retention / cfg.Interval)
	if slots < 2 {
		slots = 2
	}
	p := &Pulse{
		cfg:       cfg,
		source:    source,
		slots:     slots,
		samples:   reg.Counter("pulse_samples_total"),
		dropped:   reg.Counter("pulse_series_dropped_total"),
		epochs:    make([]int64, slots),
		series:    map[string]*pulseSeries{},
		lastEpoch: -1,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i := range p.epochs {
		p.epochs[i] = -1
	}
	return p
}

// Start launches the sampling loop. Close stops it.
func (p *Pulse) Start() {
	go func() {
		defer close(p.done)
		tick := time.NewTicker(p.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p.SampleNow()
			case <-p.stop:
				return
			}
		}
	}()
}

// Close stops the sampling loop, waiting for an in-flight sample.
func (p *Pulse) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	select {
	case <-p.done:
	case <-time.After(time.Second):
	}
}

// Interval returns the configured sampling cadence (0 on a nil store).
func (p *Pulse) Interval() time.Duration {
	if p == nil {
		return 0
	}
	return p.cfg.Interval
}

// SampleNow takes one sample immediately — the loop's body, exported so
// tests (and a just-started daemon) can sample deterministically.
func (p *Pulse) SampleNow() {
	now := p.cfg.Now()
	snap := p.source()
	values := p.derive(now, snap)
	p.store(now, values)
	p.samples.Inc()
	if p.cfg.OnSample != nil {
		p.cfg.OnSample(now, values)
	}
}

// derive computes this sample's series values from the raw snapshot,
// using the previous sample for counter and bucket deltas. Reads
// p.lastSnap/p.lastHists/p.lastTime and replaces them; callers must not
// hold p.mu (derive runs before the store lock so the source and the
// alert hook never nest inside it).
func (p *Pulse) derive(now time.Time, snap map[string]int64) map[string]float64 {
	prev, prevHists := p.lastSnap, p.lastHists
	dt := 0.0
	if prev != nil {
		dt = now.Sub(p.lastTime).Seconds()
	}
	deltas := prev != nil && dt > 0
	hists := map[string][]metrics.BucketCount{}
	values := make(map[string]float64, len(snap))
	for _, f := range metrics.ReadSnapshot(snap) {
		for _, s := range f.Series {
			switch f.Kind {
			case metrics.KindGauge:
				values[s.Name] = float64(s.Value)
			case metrics.KindCounter:
				if !deltas {
					continue
				}
				pv, ok := prev[s.Name]
				if !ok || s.Value < pv {
					pv = 0 // new counter or reset: rate from zero
				}
				values[metrics.JoinName(strings.TrimSuffix(f.Name, "_total")+":rate", s.Labels)] = float64(s.Value-pv) / dt
			case metrics.KindHistogram:
				key := metrics.JoinName(f.Name, s.Labels)
				hists[key] = s.Buckets
				if !deltas {
					continue
				}
				delta, total := bucketDelta(s.Buckets, prevHists[key])
				values[metrics.JoinName(f.Name+":rate", s.Labels)] = float64(total) / dt
				if total <= 0 {
					continue
				}
				for _, pq := range pulseQuantiles {
					if q := metrics.QuantileFromBuckets(delta, pq.Q); !math.IsNaN(q) {
						values[metrics.JoinName(f.Name+pq.Suffix, s.Labels)] = q
					}
				}
			}
		}
	}
	p.lastSnap, p.lastHists, p.lastTime = snap, hists, now
	return values
}

// bucketDelta subtracts the previous sample's cumulative buckets from
// the current ones, returning the step's own cumulative buckets and its
// observation count. A missing or shrunken previous bucket (restart,
// new route) falls back to the current cumulative value.
func bucketDelta(cur, prev []metrics.BucketCount) ([]metrics.BucketCount, int64) {
	out := make([]metrics.BucketCount, len(cur))
	prevAt := map[float64]int64{}
	for _, b := range prev {
		prevAt[b.UpperBound] = b.Count
	}
	for i, b := range cur {
		d := b.Count - prevAt[b.UpperBound]
		if d < 0 {
			d = b.Count
		}
		out[i] = metrics.BucketCount{UpperBound: b.UpperBound, Count: d}
	}
	var total int64
	if len(out) > 0 {
		total = out[len(out)-1].Count
	}
	return out, total
}

// store writes one sample's values into the slot rings.
func (p *Pulse) store(now time.Time, values map[string]float64) {
	epoch := now.UnixNano() / int64(p.cfg.Interval)
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := int(epoch % int64(p.slots))
	if idx < 0 {
		idx += p.slots
	}
	if p.epochs[idx] != epoch {
		// The slot is being reused for a new epoch: every series forgets
		// it, so series absent from this sample read as gaps, not stale
		// values.
		for _, s := range p.series {
			s.vals[idx] = math.NaN()
		}
		p.epochs[idx] = epoch
	}
	for name, v := range values {
		s := p.series[name]
		if s == nil {
			cost := seriesCost(name, p.slots)
			if p.bytes+cost > p.cfg.MaxBytes {
				p.droppedN++
				p.dropped.Inc()
				continue
			}
			s = &pulseSeries{vals: make([]float64, p.slots)}
			for i := range s.vals {
				s.vals[i] = math.NaN()
			}
			p.series[name] = s
			p.bytes += cost
		}
		s.vals[idx] = v
	}
	p.lastEpoch = epoch
}

// seriesCost estimates one series' retained footprint: the name, the
// value ring, and map/struct overhead.
func seriesCost(name string, slots int) int64 {
	return int64(len(name) + slots*8 + 64)
}

// HistoryQuery filters and shapes a Query.
type HistoryQuery struct {
	// Series keeps series whose name contains any of these substrings,
	// case-insensitively (empty: all series).
	Series []string
	// Since drops points older than this instant (zero: full retention).
	Since time.Time
	// Step downsamples to one point per step (0 or < interval: raw).
	Step time.Duration
	// Agg folds a step's raw points: "avg" (default), "max", "min" or
	// "last".
	Agg string
	// MaxSeries caps the matched series count (0: DefaultMaxHistorySeries).
	MaxSeries int
}

// DefaultMaxHistorySeries bounds one history response.
const DefaultMaxHistorySeries = 100

// HistoryPoint is one sample: wall-clock milliseconds and the value.
type HistoryPoint struct {
	TMs int64   `json:"t_ms"`
	V   float64 `json:"v"`
}

// HistorySeries is one series' retained points, oldest first.
type HistorySeries struct {
	Name   string         `json:"name"`
	Points []HistoryPoint `json:"points"`
}

// Query reads the store. Series come back name-sorted, points oldest
// first; truncated reports whether MaxSeries cut the match set.
func (p *Pulse) Query(q HistoryQuery) (out []HistorySeries, truncated bool) {
	if p == nil {
		return nil, false
	}
	maxSeries := q.MaxSeries
	if maxSeries <= 0 {
		maxSeries = DefaultMaxHistorySeries
	}
	var filters []string
	for _, f := range q.Series {
		if f = strings.TrimSpace(f); f != "" {
			filters = append(filters, strings.ToLower(f))
		}
	}
	stepN := int64(1)
	if q.Step > p.cfg.Interval {
		stepN = int64(q.Step / p.cfg.Interval)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastEpoch < 0 {
		return nil, false
	}
	names := make([]string, 0, len(p.series))
	for name := range p.series {
		if matchesAny(name, filters) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) > maxSeries {
		names = names[:maxSeries]
		truncated = true
	}
	oldest := p.lastEpoch - int64(p.slots) + 1
	if !q.Since.IsZero() {
		if e := q.Since.UnixNano() / int64(p.cfg.Interval); e > oldest {
			oldest = e
		}
	}
	for _, name := range names {
		s := p.series[name]
		hs := HistorySeries{Name: name}
		var agg aggState
		groupEnd := int64(-1)
		flush := func() {
			if v, ok := agg.result(q.Agg); ok {
				hs.Points = append(hs.Points, HistoryPoint{
					TMs: groupEnd * int64(p.cfg.Interval) / int64(time.Millisecond),
					V:   v,
				})
			}
			agg = aggState{}
		}
		for e := oldest; e <= p.lastEpoch; e++ {
			idx := int(e % int64(p.slots))
			if idx < 0 {
				idx += p.slots
			}
			if p.epochs[idx] != e {
				continue
			}
			v := s.vals[idx]
			if math.IsNaN(v) {
				continue
			}
			end := (e/stepN + 1) * stepN
			if end != groupEnd && agg.n > 0 {
				flush()
			}
			groupEnd = end
			agg.add(v)
		}
		if agg.n > 0 {
			flush()
		}
		if len(hs.Points) > 0 {
			out = append(out, hs)
		}
	}
	return out, truncated
}

// Latest returns the newest value of every series matching the filters,
// in the same semantics as Query's Series field.
func (p *Pulse) Latest(filters []string) map[string]float64 {
	if p == nil {
		return nil
	}
	var low []string
	for _, f := range filters {
		if f = strings.TrimSpace(f); f != "" {
			low = append(low, strings.ToLower(f))
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastEpoch < 0 {
		return nil
	}
	idx := int(p.lastEpoch % int64(p.slots))
	out := make(map[string]float64)
	for name, s := range p.series {
		if !matchesAny(name, low) {
			continue
		}
		if v := s.vals[idx]; !math.IsNaN(v) {
			out[name] = v
		}
	}
	return out
}

func matchesAny(name string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	low := strings.ToLower(name)
	for _, f := range filters {
		if strings.Contains(low, f) {
			return true
		}
	}
	return false
}

// aggState folds one downsample group.
type aggState struct {
	n                   int
	sum, min, max, last float64
}

func (a *aggState) add(v float64) {
	if a.n == 0 {
		a.min, a.max = v, v
	} else {
		a.min = math.Min(a.min, v)
		a.max = math.Max(a.max, v)
	}
	a.sum += v
	a.last = v
	a.n++
}

func (a *aggState) result(agg string) (float64, bool) {
	if a.n == 0 {
		return 0, false
	}
	switch agg {
	case "max":
		return a.max, true
	case "min":
		return a.min, true
	case "last":
		return a.last, true
	default:
		return a.sum / float64(a.n), true
	}
}

// Gauges returns the store's occupancy gauges.
func (p *Pulse) Gauges() map[string]int64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return map[string]int64{
		"pulse_series":         int64(len(p.series)),
		"pulse_bytes":          p.bytes,
		"pulse_interval_ms":    int64(p.cfg.Interval / time.Millisecond),
		"pulse_series_dropped": p.droppedN,
	}
}
