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

// Alert engine: threshold rules over any pulse series plus the SLO
// engine's breach states, evaluated once per sample with a
// pending → firing → resolved lifecycle.
//
// Rules arrive as compact expressions:
//
//	-alert 'ring_replication_pending>100 for 30s'
//	-alert 'http_request_duration_us_p99>250000'
//
// A rule matches its series exactly when one exists under that name,
// otherwise by substring — so a rule over a labelled family
// ("..._p99>x") spawns one alert instance per matching series. Each
// configured SLO objective is an implicit rule that goes pending when
// the objective breaches and fires once it has stayed in breach for the
// SLOFor hold.

// Alert lifecycle states.
const (
	AlertPending  = "pending"
	AlertFiring   = "firing"
	AlertResolved = "resolved"
)

// DefaultAlertDebounce spaces firing notifications per rule.
const DefaultAlertDebounce = 2 * time.Minute

// defaultResolvedRetention keeps resolved alerts listable after the
// fact without growing without bound.
const defaultResolvedRetention = 10 * time.Minute

// AlertRule is one parsed threshold expression.
type AlertRule struct {
	// Expr is the original text, used as the rule's display name.
	Expr string
	// Series is the series name (or substring) the rule watches.
	Series string
	// Op is ">" or "<".
	Op string
	// Threshold is the compared value.
	Threshold float64
	// For is how long the condition must hold before pending becomes
	// firing (0: fires on the second consecutive true evaluation).
	For time.Duration
}

// breached evaluates the rule's comparison.
func (r AlertRule) breached(v float64) bool {
	if r.Op == "<" {
		return v < r.Threshold
	}
	return v > r.Threshold
}

// ParseAlertRules parses a ';'-separated rule list via ParseAlertRule.
func ParseAlertRules(spec string) ([]AlertRule, error) {
	var out []AlertRule
	for _, part := range strings.Split(spec, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		r, err := ParseAlertRule(part)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ParseAlertRule parses one `SERIES>VALUE [for DURATION]` (or `<`)
// expression. Every failure names the offending token, so a bad spec
// dies at flag parsing with an actionable message instead of surfacing
// at first evaluation.
func ParseAlertRule(expr string) (AlertRule, error) {
	text := strings.TrimSpace(expr)
	fail := func(format string, args ...any) (AlertRule, error) {
		return AlertRule{}, fmt.Errorf("alert rule %q: %s", text, fmt.Sprintf(format, args...))
	}
	i := strings.IndexAny(text, "><")
	if i < 0 {
		return fail("no comparison operator; want SERIES>VALUE or SERIES<VALUE")
	}
	r := AlertRule{Expr: text, Op: string(text[i]), Series: strings.TrimSpace(text[:i])}
	if r.Series == "" {
		return fail("missing series name before %q", r.Op)
	}
	rest := strings.Fields(text[i+1:])
	if len(rest) == 0 {
		return fail("missing threshold after %q", r.Op)
	}
	v, err := strconv.ParseFloat(rest[0], 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return fail("bad threshold %q", rest[0])
	}
	r.Threshold = v
	switch {
	case len(rest) == 1:
	case rest[1] != "for":
		return fail("unexpected token %q (want 'for DURATION')", rest[1])
	case len(rest) == 2:
		return fail("missing duration after 'for'")
	case len(rest) > 3:
		return fail("unexpected token %q after duration", rest[3])
	default:
		d, err := time.ParseDuration(rest[2])
		if err != nil || d < 0 {
			return fail("bad duration %q", rest[2])
		}
		r.For = d
	}
	return r, nil
}

// Alert is one rule instance's live state, as served at GET /v1/alerts.
type Alert struct {
	Rule       string    `json:"rule"`
	Kind       string    `json:"kind"` // "threshold" or "slo"
	Series     string    `json:"series,omitempty"`
	Node       string    `json:"node,omitempty"`
	State      string    `json:"state"`
	Value      float64   `json:"value"`
	Threshold  float64   `json:"threshold"`
	Since      time.Time `json:"since"`
	FiredAt    time.Time `json:"fired_at,omitzero"`
	ResolvedAt time.Time `json:"resolved_at,omitzero"`
}

// AlertEvent is one lifecycle transition, delivered to the notify sink
// (webhook, flight recorder). State is AlertFiring or AlertResolved;
// pending transitions are visible in listings but not notified.
type AlertEvent struct {
	Rule      string    `json:"rule"`
	Kind      string    `json:"kind"`
	Series    string    `json:"series,omitempty"`
	Node      string    `json:"node,omitempty"`
	State     string    `json:"state"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	At        time.Time `json:"at"`
}

// AlertEngineConfig wires an AlertEngine.
type AlertEngineConfig struct {
	// Rules are the threshold rules.
	Rules []AlertRule
	// SLO, when set, contributes one implicit breach rule per objective.
	SLO *SLOEngine
	// SLOFor is the hold before a breaching objective fires (0: fires on
	// the second consecutive breaching evaluation).
	SLOFor time.Duration
	// Debounce spaces firing notifications per rule (0:
	// DefaultAlertDebounce; negative: no debounce).
	Debounce time.Duration
	// Node labels every alert and event with this node's identity.
	Node string
	// Notify receives firing and resolved events (nil: no sink). Called
	// outside the engine lock, on the evaluation goroutine.
	Notify func(AlertEvent)
	// Now overrides the clock (tests).
	Now func() time.Time
}

// AlertEngine tracks rule instances across evaluations. Eval is called
// once per pulse sample; Alerts and Gauges read the live state.
type AlertEngine struct {
	cfg   AlertEngineConfig
	fired *metrics.Counter

	mu         sync.Mutex
	states     map[string]*alertState // rule|series → state
	lastNotify map[string]time.Time   // rule → last firing notification
}

type alertState struct {
	alert    Alert
	notified bool // the firing event reached the sink (not debounced)
}

// NewAlertEngine builds an engine, registering its counter on reg
// (nil: counter kept private).
func NewAlertEngine(cfg AlertEngineConfig, reg *metrics.Registry) *AlertEngine {
	if cfg.Debounce == 0 {
		cfg.Debounce = DefaultAlertDebounce
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &AlertEngine{
		cfg:        cfg,
		fired:      reg.Counter("alerts_fired_total"),
		states:     map[string]*alertState{},
		lastNotify: map[string]time.Time{},
	}
}

// condition is one rule instance's evaluation for a single tick.
type condition struct {
	rule      string
	kind      string
	series    string
	value     float64
	threshold float64
	breached  bool
	hold      time.Duration
}

// Eval advances every rule instance against this sample's values.
func (e *AlertEngine) Eval(now time.Time, values map[string]float64) {
	if e == nil {
		return
	}
	conds := e.conditions(values)
	var events []AlertEvent
	e.mu.Lock()
	seen := map[string]bool{}
	for _, c := range conds {
		key := c.rule + "|" + c.series
		seen[key] = true
		events = append(events, e.advance(now, key, c)...)
	}
	// Instances whose series vanished from the sample (route went quiet,
	// series dropped) read as condition-false so they resolve rather
	// than firing forever on a stale value.
	for key, st := range e.states {
		if seen[key] || st.alert.State == AlertResolved {
			continue
		}
		c := condition{
			rule:      st.alert.Rule,
			kind:      st.alert.Kind,
			series:    st.alert.Series,
			value:     st.alert.Value,
			threshold: st.alert.Threshold,
		}
		events = append(events, e.advance(now, key, c)...)
	}
	// Resolved alerts stay listable for a while, then age out.
	for key, st := range e.states {
		if st.alert.State == AlertResolved && now.Sub(st.alert.ResolvedAt) > defaultResolvedRetention {
			delete(e.states, key)
		}
	}
	e.mu.Unlock()
	if e.cfg.Notify != nil {
		for _, ev := range events {
			e.cfg.Notify(ev)
		}
	}
}

// conditions expands the configured rules and SLO objectives against
// this sample.
func (e *AlertEngine) conditions(values map[string]float64) []condition {
	var out []condition
	for _, r := range e.cfg.Rules {
		if v, ok := values[r.Series]; ok {
			out = append(out, condition{
				rule: r.Expr, kind: "threshold", series: r.Series,
				value: v, threshold: r.Threshold, breached: r.breached(v), hold: r.For,
			})
			continue
		}
		needle := strings.ToLower(r.Series)
		for name, v := range values {
			if strings.Contains(strings.ToLower(name), needle) {
				out = append(out, condition{
					rule: r.Expr, kind: "threshold", series: name,
					value: v, threshold: r.Threshold, breached: r.breached(v), hold: r.For,
				})
			}
		}
	}
	if e.cfg.SLO != nil {
		for _, st := range e.cfg.SLO.Statuses() {
			out = append(out, condition{
				rule: "slo:" + st.Objective, kind: "slo",
				value: st.BurnRate, threshold: 1,
				breached: st.State == SLOStateBreach, hold: e.cfg.SLOFor,
			})
		}
	}
	return out
}

// advance moves one instance through the lifecycle, returning the
// events to notify. Callers hold e.mu.
func (e *AlertEngine) advance(now time.Time, key string, c condition) []AlertEvent {
	st := e.states[key]
	if c.breached {
		if st == nil || st.alert.State == AlertResolved {
			st = &alertState{alert: Alert{
				Rule: c.rule, Kind: c.kind, Series: c.series, Node: e.cfg.Node,
				State: AlertPending, Since: now,
			}}
			e.states[key] = st
		}
		st.alert.Value = c.value
		st.alert.Threshold = c.threshold
		// Pending holds for at least one full evaluation even with a zero
		// hold, so the pending state is observable and a single spike
		// sample cannot fire on its own.
		if st.alert.State == AlertPending && now.After(st.alert.Since) && now.Sub(st.alert.Since) >= c.hold {
			st.alert.State = AlertFiring
			st.alert.FiredAt = now
			e.fired.Inc()
			if e.cfg.Debounce < 0 || now.Sub(e.lastNotify[c.rule]) >= e.cfg.Debounce {
				e.lastNotify[c.rule] = now
				st.notified = true
				return []AlertEvent{e.event(st.alert, AlertFiring, now)}
			}
		}
		return nil
	}
	if st == nil {
		return nil
	}
	switch st.alert.State {
	case AlertPending:
		// Never fired: drop silently.
		delete(e.states, key)
	case AlertFiring:
		st.alert.State = AlertResolved
		st.alert.ResolvedAt = now
		if st.notified {
			return []AlertEvent{e.event(st.alert, AlertResolved, now)}
		}
	}
	return nil
}

func (e *AlertEngine) event(a Alert, state string, now time.Time) AlertEvent {
	return AlertEvent{
		Rule: a.Rule, Kind: a.Kind, Series: a.Series, Node: e.cfg.Node,
		State: state, Value: a.Value, Threshold: a.Threshold, At: now,
	}
}

// Alerts lists every live instance: firing first, then pending, then
// resolved, name-sorted within each state.
func (e *AlertEngine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	out := make([]Alert, 0, len(e.states))
	for _, st := range e.states {
		out = append(out, st.alert)
	}
	e.mu.Unlock()
	rank := map[string]int{AlertFiring: 0, AlertPending: 1, AlertResolved: 2}
	sort.Slice(out, func(i, j int) bool {
		if rank[out[i].State] != rank[out[j].State] {
			return rank[out[i].State] < rank[out[j].State]
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Series < out[j].Series
	})
	return out
}

// Gauges returns the engine's live state counts.
func (e *AlertEngine) Gauges() map[string]int64 {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var firing, pending int64
	for _, st := range e.states {
		switch st.alert.State {
		case AlertFiring:
			firing++
		case AlertPending:
			pending++
		}
	}
	return map[string]int64{
		"alerts_firing":  firing,
		"alerts_pending": pending,
	}
}
