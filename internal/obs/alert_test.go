package obs

import (
	"strings"
	"testing"
	"time"

	"ppclust/internal/metrics"
)

func TestParseAlertRule(t *testing.T) {
	r, err := ParseAlertRule("ring_replication_pending>100 for 30s")
	if err != nil {
		t.Fatal(err)
	}
	if r.Series != "ring_replication_pending" || r.Op != ">" || r.Threshold != 100 || r.For != 30*time.Second {
		t.Fatalf("parsed: %+v", r)
	}
	r, err = ParseAlertRule("  free_bytes < 1.5  ")
	if err != nil {
		t.Fatal(err)
	}
	if r.Series != "free_bytes" || r.Op != "<" || r.Threshold != 1.5 || r.For != 0 {
		t.Fatalf("parsed: %+v", r)
	}
}

func TestParseAlertRuleErrorsNameOffendingToken(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"no_operator_here", "no comparison operator"},
		{">5", `missing series name before ">"`},
		{"x>", `missing threshold after ">"`},
		{"x>abc", `bad threshold "abc"`},
		{"x>5 whenever 3s", `unexpected token "whenever"`},
		{"x>5 for", "missing duration after 'for'"},
		{"x>5 for quickly", `bad duration "quickly"`},
		{"x>5 for 3s extra", `unexpected token "extra"`},
	}
	for _, c := range cases {
		_, err := ParseAlertRule(c.expr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err=%v, want mention of %q", c.expr, err, c.want)
		}
	}
	if _, err := ParseAlertRules("a>1; x>5 for quickly"); err == nil || !strings.Contains(err.Error(), "quickly") {
		t.Fatalf("list parse: err=%v", err)
	}
	rules, err := ParseAlertRules("a>1 ; ; b<2 for 5s")
	if err != nil || len(rules) != 2 {
		t.Fatalf("list parse: %v %v", rules, err)
	}
}

// TestParseAlertRuleRefusesNonFinite: a NaN threshold never compares
// true and an infinite one never compares false; both are refused,
// naming the token.
func TestParseAlertRuleRefusesNonFinite(t *testing.T) {
	for expr, tok := range map[string]string{
		"x>NaN": "NaN", "x<NaN for 1s": "NaN", "x>Inf": "Inf", "x<-Inf": "-Inf", "x>+Inf": "+Inf",
	} {
		if r, err := ParseAlertRules(expr); err == nil || !strings.Contains(err.Error(), `bad threshold "`+tok+`"`) {
			t.Errorf("ParseAlertRules(%q) = %+v, %v; want bad threshold %q", expr, r, err, tok)
		}
	}
}

// FuzzParseAlertRules: no spec panics the parser, and every accepted
// spec parses back from each rule's Expr to that same rule. Seeds under
// testdata/fuzz are the rules README and the tests use.
func FuzzParseAlertRules(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseAlertRules(spec)
		if err != nil {
			return
		}
		for _, r := range rules {
			again, err := ParseAlertRules(r.Expr)
			if err != nil || len(again) != 1 || again[0] != r {
				t.Fatalf("rule %+v: ParseAlertRules(%q) = %+v, %v", r, r.Expr, again, err)
			}
		}
	})
}

type alertHarness struct {
	clk    *pulseClock
	eng    *AlertEngine
	events []AlertEvent
}

func newAlertHarness(t *testing.T, cfg AlertEngineConfig, reg *metrics.Registry) *alertHarness {
	t.Helper()
	h := &alertHarness{clk: newPulseClock()}
	cfg.Now = h.clk.now
	cfg.Notify = func(ev AlertEvent) { h.events = append(h.events, ev) }
	h.eng = NewAlertEngine(cfg, reg)
	return h
}

func (h *alertHarness) tick(values map[string]float64) {
	h.eng.Eval(h.clk.now(), values)
	h.clk.advance(time.Second)
}

func stateOf(t *testing.T, eng *AlertEngine, rule string) string {
	t.Helper()
	for _, a := range eng.Alerts() {
		if a.Rule == rule {
			return a.State
		}
	}
	return ""
}

func TestAlertLifecycle(t *testing.T) {
	rule, _ := ParseAlertRule("depth>10 for 2s")
	reg := metrics.NewRegistry()
	h := newAlertHarness(t, AlertEngineConfig{Rules: []AlertRule{rule}, Node: "n1"}, reg)

	h.tick(map[string]float64{"depth": 5})
	if got := stateOf(t, h.eng, rule.Expr); got != "" {
		t.Fatalf("below threshold: state %q", got)
	}
	h.tick(map[string]float64{"depth": 20}) // breach starts: pending
	if got := stateOf(t, h.eng, rule.Expr); got != AlertPending {
		t.Fatalf("first breach: state %q, want pending", got)
	}
	h.tick(map[string]float64{"depth": 21}) // 1s held < 2s: still pending
	if got := stateOf(t, h.eng, rule.Expr); got != AlertPending {
		t.Fatalf("held 1s: state %q, want pending", got)
	}
	h.tick(map[string]float64{"depth": 22}) // 2s held: fires
	if got := stateOf(t, h.eng, rule.Expr); got != AlertFiring {
		t.Fatalf("held 2s: state %q, want firing", got)
	}
	if len(h.events) != 1 || h.events[0].State != AlertFiring || h.events[0].Node != "n1" {
		t.Fatalf("firing events: %+v", h.events)
	}
	if reg.Snapshot()["alerts_fired_total"] != 1 {
		t.Fatalf("fired counter: %v", reg.Snapshot())
	}
	h.tick(map[string]float64{"depth": 3}) // back under: resolved
	if got := stateOf(t, h.eng, rule.Expr); got != AlertResolved {
		t.Fatalf("recovered: state %q, want resolved", got)
	}
	if len(h.events) != 2 || h.events[1].State != AlertResolved {
		t.Fatalf("resolve events: %+v", h.events)
	}
	g := h.eng.Gauges()
	if g["alerts_firing"] != 0 || g["alerts_pending"] != 0 {
		t.Fatalf("gauges after resolve: %v", g)
	}
}

func TestAlertZeroHoldStillObservablyPending(t *testing.T) {
	rule, _ := ParseAlertRule("depth>10")
	h := newAlertHarness(t, AlertEngineConfig{Rules: []AlertRule{rule}}, nil)
	h.tick(map[string]float64{"depth": 20})
	if got := stateOf(t, h.eng, rule.Expr); got != AlertPending {
		t.Fatalf("single spike fired immediately: state %q", got)
	}
	h.tick(map[string]float64{"depth": 20})
	if got := stateOf(t, h.eng, rule.Expr); got != AlertFiring {
		t.Fatalf("second consecutive breach: state %q, want firing", got)
	}
}

func TestAlertPendingDropsSilently(t *testing.T) {
	rule, _ := ParseAlertRule("depth>10 for 30s")
	h := newAlertHarness(t, AlertEngineConfig{Rules: []AlertRule{rule}}, nil)
	h.tick(map[string]float64{"depth": 20})
	h.tick(map[string]float64{"depth": 5}) // recovered before firing
	if got := stateOf(t, h.eng, rule.Expr); got != "" {
		t.Fatalf("pending survived recovery: %q", got)
	}
	if len(h.events) != 0 {
		t.Fatalf("pending-only cycle notified: %+v", h.events)
	}
}

func TestAlertDebounce(t *testing.T) {
	rule, _ := ParseAlertRule("depth>10")
	h := newAlertHarness(t, AlertEngineConfig{
		Rules:    []AlertRule{rule},
		Debounce: time.Minute,
	}, nil)
	flap := func() {
		h.tick(map[string]float64{"depth": 20})
		h.tick(map[string]float64{"depth": 20}) // fires
		h.tick(map[string]float64{"depth": 1})  // resolves
	}
	flap()
	if len(h.events) != 2 { // firing + resolved
		t.Fatalf("first cycle events: %+v", h.events)
	}
	flap() // 3s later: inside the 1m debounce — no notifications at all
	if len(h.events) != 2 {
		t.Fatalf("debounced cycle still notified: %+v", h.events)
	}
	// The re-fire itself is visible in listings even though not notified.
	h.tick(map[string]float64{"depth": 20})
	h.tick(map[string]float64{"depth": 20})
	if got := stateOf(t, h.eng, rule.Expr); got != AlertFiring {
		t.Fatalf("debounced alert not listed as firing: %q", got)
	}
	for h.clk.now().Sub(time.Unix(1_700_000_000, 0)) < 2*time.Minute {
		h.tick(map[string]float64{"depth": 1})
		h.tick(map[string]float64{"depth": 20})
		h.tick(map[string]float64{"depth": 20})
	}
	if len(h.events) <= 2 {
		t.Fatalf("debounce never expired: %+v", h.events)
	}
}

func TestAlertSubstringFanOut(t *testing.T) {
	rule, _ := ParseAlertRule("duration_us_p99>1000")
	h := newAlertHarness(t, AlertEngineConfig{Rules: []AlertRule{rule}}, nil)
	vals := map[string]float64{
		`http_request_duration_us_p99{route="a"}`: 5000,
		`http_request_duration_us_p99{route="b"}`: 10,
		`unrelated_gauge`:                         99999,
	}
	h.tick(vals)
	h.tick(vals)
	alerts := h.eng.Alerts()
	if len(alerts) != 1 || alerts[0].Series != `http_request_duration_us_p99{route="a"}` || alerts[0].State != AlertFiring {
		t.Fatalf("fan-out alerts: %+v", alerts)
	}
}

func TestAlertVanishedSeriesResolves(t *testing.T) {
	rule, _ := ParseAlertRule("depth>10")
	h := newAlertHarness(t, AlertEngineConfig{Rules: []AlertRule{rule}}, nil)
	h.tick(map[string]float64{`depth{q="a"}`: 20})
	h.tick(map[string]float64{`depth{q="a"}`: 20}) // fires
	h.tick(map[string]float64{})                   // series gone entirely
	alerts := h.eng.Alerts()
	if len(alerts) != 1 || alerts[0].State != AlertResolved {
		t.Fatalf("vanished series: %+v", alerts)
	}
	if h.events[len(h.events)-1].State != AlertResolved {
		t.Fatalf("no resolve event for vanished series: %+v", h.events)
	}
}

func TestAlertSLORule(t *testing.T) {
	objs, err := ParseSLO("protect:p99<1ms,err<50%")
	if err != nil {
		t.Fatal(err)
	}
	slo := NewSLOEngine(objs, 0)
	h := newAlertHarness(t, AlertEngineConfig{
		SLO:    slo,
		SLOFor: time.Second,
	}, nil)
	for i := 0; i < 200; i++ {
		slo.Observe("POST /v1/protect", 50, false) // 50ms >> 1ms: all bad
	}
	h.tick(nil)
	h.tick(nil)
	h.tick(nil)
	alerts := h.eng.Alerts()
	if len(alerts) != 1 || alerts[0].Kind != "slo" || alerts[0].State != AlertFiring {
		t.Fatalf("slo alert: %+v", alerts)
	}
	if !strings.HasPrefix(alerts[0].Rule, "slo:") {
		t.Fatalf("slo rule name: %+v", alerts[0])
	}
	if len(h.events) != 1 || h.events[0].Kind != "slo" {
		t.Fatalf("slo events: %+v", h.events)
	}
}

func TestAlertEngineNilSafe(t *testing.T) {
	var e *AlertEngine
	e.Eval(time.Now(), nil)
	if e.Alerts() != nil || e.Gauges() != nil {
		t.Fatal("nil engine leaked state")
	}
}
