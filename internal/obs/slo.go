package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ppclust/internal/metrics"
)

// SLO engine: per-route latency and error-rate objectives evaluated
// over a rolling window.
//
// Objectives arrive as compact specs, e.g.
//
//	-slo 'protect:p99<250ms,err<0.5%'
//	-slo 'p95<100ms'          (all routes)
//
// Each condition becomes one Objective. Both kinds reduce to the same
// burn model: an objective grants an error budget (the allowed bad
// fraction — 1-q for a pXX latency target, the rate itself for err<),
// every observed request is good or bad against it, and the burn rate
// is badFraction/budget. Burn 1.0 means the budget is being spent
// exactly as fast as allowed; above 1 the objective is in breach, and
// from WarningBurn up it is close enough to flag.

// Objective states, worst-first.
const (
	SLOStateOK      = "ok"
	SLOStateWarning = "warning"
	SLOStateBreach  = "breach"
)

// WarningBurn is the burn rate from which an objective reports
// "warning" instead of "ok".
const WarningBurn = 0.5

// DefaultSLOWindow is the rolling evaluation window when none is
// configured.
const DefaultSLOWindow = time.Minute

// Objective is one parsed SLO condition. Exactly one of Quantile
// (latency objective: the Quantile of requests must finish under
// ThresholdMs) or ErrBudget (error objective: at most this fraction of
// requests may fail) is set.
type Objective struct {
	// Route restricts the objective to routes containing this substring,
	// case-insensitively ("" or "*": all routes).
	Route string
	// Spec is the original condition text ("p99<250ms"), kept for display.
	Spec string
	// Quantile in (0,1) for latency objectives, 0 otherwise.
	Quantile float64
	// ThresholdMs is the latency target for latency objectives.
	ThresholdMs float64
	// ErrBudget is the allowed error fraction for error objectives.
	ErrBudget float64
}

// Name is the objective's display form, e.g. "protect:p99<250ms".
func (o Objective) Name() string {
	if o.Route == "" {
		return o.Spec
	}
	return o.Route + ":" + o.Spec
}

// Kind is "latency" or "error".
func (o Objective) Kind() string {
	if o.Quantile > 0 {
		return "latency"
	}
	return "error"
}

// Budget is the allowed bad-request fraction: 1-q for latency
// objectives, the configured rate for error objectives.
func (o Objective) Budget() float64 {
	if o.Quantile > 0 {
		return 1 - o.Quantile
	}
	return o.ErrBudget
}

// Matches reports whether the objective applies to the given route (or
// load-generator op) label.
func (o Objective) Matches(route string) bool {
	if o.Route == "" || o.Route == "*" {
		return true
	}
	return strings.Contains(strings.ToLower(route), strings.ToLower(o.Route))
}

// Bad classifies one observation against the objective: errors are bad
// for error objectives, over-threshold latencies for latency ones.
func (o Objective) Bad(durMs float64, isErr bool) bool {
	if o.Quantile > 0 {
		return durMs > o.ThresholdMs
	}
	return isErr
}

// EvalBudget turns a (total, bad) count into a burn rate and state.
// With no observations the objective is trivially "ok"; a zero budget
// (e.g. err<0%) breaches on the first bad request.
func EvalBudget(total, bad int64, budget float64) (burn float64, state string) {
	if total == 0 {
		return 0, SLOStateOK
	}
	frac := float64(bad) / float64(total)
	switch {
	case budget > 0:
		burn = frac / budget
	case bad > 0:
		burn = math.Inf(1)
	}
	switch {
	case burn > 1:
		state = SLOStateBreach
	case burn >= WarningBurn:
		state = SLOStateWarning
	default:
		state = SLOStateOK
	}
	return burn, state
}

// WorseSLOState returns the worse of two states.
func WorseSLOState(a, b string) string {
	rank := func(s string) int {
		switch s {
		case SLOStateBreach:
			return 2
		case SLOStateWarning:
			return 1
		}
		return 0
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// ParseSLO parses a spec list: objectives separated by ';', each an
// optional `route:` prefix followed by comma-separated conditions.
// Conditions are `pXX<DURATION` (Go duration or bare milliseconds) or
// `err<RATE%` (percent with '%', bare fraction without).
func ParseSLO(spec string) ([]Objective, error) {
	var out []Objective
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		route := ""
		conds := part
		if i := strings.IndexByte(part, ':'); i >= 0 {
			route = strings.TrimSpace(part[:i])
			conds = part[i+1:]
		}
		if route == "*" {
			route = ""
		}
		for _, cond := range strings.Split(conds, ",") {
			cond = strings.TrimSpace(cond)
			if cond == "" {
				continue
			}
			o, err := parseCondition(cond)
			if err != nil {
				return nil, fmt.Errorf("slo %q: %w", part, err)
			}
			o.Route = route
			out = append(out, o)
		}
	}
	return out, nil
}

func parseCondition(cond string) (Objective, error) {
	lhs, rhs, ok := strings.Cut(cond, "<")
	if !ok {
		return Objective{}, fmt.Errorf("condition %q: want pXX<latency or err<rate", cond)
	}
	lhs = strings.TrimSpace(strings.ToLower(lhs))
	rhs = strings.TrimSpace(rhs)
	o := Objective{Spec: lhs + "<" + rhs}
	switch {
	case lhs == "err":
		rate, err := parseRate(rhs)
		if err != nil {
			return Objective{}, fmt.Errorf("condition %q: %w", cond, err)
		}
		o.ErrBudget = rate
	case strings.HasPrefix(lhs, "p"):
		q, err := strconv.ParseFloat(lhs[1:], 64)
		if err != nil || !(q > 0 && q < 100) {
			return Objective{}, fmt.Errorf("condition %q: quantile must be in (0,100)", cond)
		}
		ms, err := parseLatency(rhs)
		if err != nil {
			return Objective{}, fmt.Errorf("condition %q: %w", cond, err)
		}
		o.Quantile = q / 100
		o.ThresholdMs = ms
	default:
		return Objective{}, fmt.Errorf("condition %q: unknown objective %q", cond, lhs)
	}
	return o, nil
}

// parseRate accepts "0.5%" (percent) or "0.005" (fraction).
func parseRate(s string) (float64, error) {
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || !(v >= 0) {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	if pct {
		v /= 100
	}
	if v > 1 {
		return 0, fmt.Errorf("rate %q exceeds 100%%", s)
	}
	return v, nil
}

// parseLatency accepts a Go duration ("250ms", "1.5s") or bare finite
// milliseconds ("250").
func parseLatency(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		if d < 0 {
			return 0, fmt.Errorf("bad latency %q", s)
		}
		return float64(d) / float64(time.Millisecond), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0) || math.IsInf(v, 1) {
		return 0, fmt.Errorf("bad latency %q", s)
	}
	return v, nil
}

// sloBoundsMs are the fixed latency buckets each objective's window
// keeps for observed-quantile estimates. Coarse on purpose: the
// objective's own threshold decides good/bad exactly; the histogram
// only drives the reported "observed pXX", interpolated within a bucket
// and capped at the top bound.
var sloBoundsMs = [...]float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

const sloSlots = 30

// sloSlot is one time slice of an objective's rolling window.
type sloSlot struct {
	epoch int64
	total int64
	bad   int64
	hist  [len(sloBoundsMs) + 1]int64 // last bucket is +Inf overflow
}

// SLOEngine evaluates configured objectives over a rolling window of
// fixed slots. Observe is called once per finished request from the
// instrumentation edge; Statuses and Gauges read the live window.
type SLOEngine struct {
	objectives []Objective
	window     time.Duration
	slot       time.Duration
	now        func() time.Time

	mu   sync.Mutex
	wins [][]sloSlot // [objective][slot]
}

// NewSLOEngine builds an engine for the given objectives (nil engine
// semantics are handled by callers; an empty objective list is valid
// and reports nothing). window <= 0 uses DefaultSLOWindow.
func NewSLOEngine(objectives []Objective, window time.Duration) *SLOEngine {
	if window <= 0 {
		window = DefaultSLOWindow
	}
	slot := window / sloSlots
	if slot < time.Millisecond {
		slot = time.Millisecond
	}
	wins := make([][]sloSlot, len(objectives))
	for i := range wins {
		wins[i] = make([]sloSlot, sloSlots)
	}
	return &SLOEngine{
		objectives: objectives,
		window:     window,
		slot:       slot,
		now:        time.Now,
		wins:       wins,
	}
}

// Window returns the engine's rolling window.
func (e *SLOEngine) Window() time.Duration { return e.window }

// Objectives returns the configured objectives.
func (e *SLOEngine) Objectives() []Objective {
	if e == nil {
		return nil
	}
	return e.objectives
}

// Observe records one finished request against every matching
// objective.
func (e *SLOEngine) Observe(route string, durMs float64, isErr bool) {
	if e == nil || len(e.objectives) == 0 {
		return
	}
	epoch := e.now().UnixNano() / int64(e.slot)
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, o := range e.objectives {
		if !o.Matches(route) {
			continue
		}
		sl := &e.wins[i][epoch%sloSlots]
		if sl.epoch != epoch {
			*sl = sloSlot{epoch: epoch}
		}
		sl.total++
		if o.Bad(durMs, isErr) {
			sl.bad++
		}
		sl.hist[bucketIndex(durMs)]++
	}
}

func bucketIndex(ms float64) int {
	for i, b := range sloBoundsMs {
		if ms <= b {
			return i
		}
	}
	return len(sloBoundsMs)
}

// SLOStatus is one objective's live evaluation, as served at /v1/slo.
type SLOStatus struct {
	Objective    string  `json:"objective"`
	Route        string  `json:"route,omitempty"`
	Kind         string  `json:"kind"`
	Target       string  `json:"target"`
	Requests     int64   `json:"requests"`
	Bad          int64   `json:"bad"`
	Budget       float64 `json:"budget"`
	BurnRate     float64 `json:"burn_rate"`
	ObservedMs   float64 `json:"observed_ms,omitempty"`
	ObservedRate float64 `json:"observed_rate"`
	State        string  `json:"state"`
}

// Statuses evaluates every objective over the current window.
func (e *SLOEngine) Statuses() []SLOStatus {
	if e == nil {
		return nil
	}
	nowEpoch := e.now().UnixNano() / int64(e.slot)
	oldest := nowEpoch - sloSlots + 1
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.objectives))
	for i, o := range e.objectives {
		var total, bad int64
		var hist [len(sloBoundsMs) + 1]int64
		for s := range e.wins[i] {
			sl := &e.wins[i][s]
			if sl.epoch < oldest || sl.epoch > nowEpoch {
				continue
			}
			total += sl.total
			bad += sl.bad
			for b := range hist {
				hist[b] += sl.hist[b]
			}
		}
		burn, state := EvalBudget(total, bad, o.Budget())
		st := SLOStatus{
			Objective: o.Name(),
			Route:     o.Route,
			Kind:      o.Kind(),
			Target:    o.Spec,
			Requests:  total,
			Bad:       bad,
			Budget:    o.Budget(),
			BurnRate:  roundBurn(burn),
			State:     state,
		}
		if total > 0 {
			st.ObservedRate = float64(bad) / float64(total)
		}
		if o.Quantile > 0 && total > 0 {
			buckets := make([]metrics.BucketCount, len(hist))
			var cum int64
			for b, c := range hist {
				cum += c
				bound := math.Inf(1)
				if b < len(sloBoundsMs) {
					bound = sloBoundsMs[b]
				}
				buckets[b] = metrics.BucketCount{UpperBound: bound, Count: cum}
			}
			st.ObservedMs = metrics.QuantileFromBuckets(buckets, o.Quantile)
		}
		out = append(out, st)
	}
	return out
}

// roundBurn keeps burn rates JSON-friendly: +Inf (zero-budget breach)
// is clamped to a large sentinel, and noise beyond 3 decimals dropped.
func roundBurn(b float64) float64 {
	if math.IsInf(b, 1) || b > 1e6 {
		return 1e6
	}
	return math.Round(b*1000) / 1000
}

// Gauges exposes each objective's burn rate (×1000, as
// slo_burn_rate_milli) and state (0 ok / 1 warning / 2 breach) plus the
// breaching-objective count, for the registry-adjacent gauge surface.
func (e *SLOEngine) Gauges() map[string]int64 {
	if e == nil {
		return nil
	}
	sts := e.Statuses()
	g := make(map[string]int64, 2*len(sts)+1)
	var breaching int64
	for _, st := range sts {
		state := int64(0)
		switch st.State {
		case SLOStateWarning:
			state = 1
		case SLOStateBreach:
			state = 2
			breaching++
		}
		g[fmt.Sprintf("slo_burn_rate_milli{objective=%q}", st.Objective)] = int64(st.BurnRate * 1000)
		g[fmt.Sprintf("slo_state{objective=%q}", st.Objective)] = state
	}
	g["slo_breaching"] = breaching
	return g
}

// SortStatuses orders statuses worst-first, then by name — the order
// /v1/slo reports them in.
func SortStatuses(sts []SLOStatus) {
	rank := map[string]int{SLOStateBreach: 0, SLOStateWarning: 1, SLOStateOK: 2}
	sort.SliceStable(sts, func(i, j int) bool {
		if rank[sts[i].State] != rank[sts[j].State] {
			return rank[sts[i].State] < rank[sts[j].State]
		}
		return sts[i].Objective < sts[j].Objective
	})
}
