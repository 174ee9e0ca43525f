package obs

// SLO engine unit tests: spec parsing (routes, quantiles, rates,
// rejection of malformed input), the burn-rate budget math, window
// rotation under an injected clock, observed-quantile estimation, the
// gauge surface and worst-first ordering.

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseSLO(t *testing.T) {
	objs, err := ParseSLO("protect:p99<250ms,err<0.5%; upload:p95<1s")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("parsed %d objectives, want 3", len(objs))
	}
	lat := objs[0]
	if lat.Route != "protect" || lat.Quantile != 0.99 || lat.ThresholdMs != 250 {
		t.Errorf("latency objective = %+v", lat)
	}
	if lat.Name() != "protect:p99<250ms" || lat.Kind() != "latency" {
		t.Errorf("Name/Kind = %q %q", lat.Name(), lat.Kind())
	}
	if got := lat.Budget(); math.Abs(got-0.01) > 1e-9 {
		t.Errorf("p99 budget = %g, want 0.01", got)
	}
	errObj := objs[1]
	if errObj.Kind() != "error" || math.Abs(errObj.ErrBudget-0.005) > 1e-9 {
		t.Errorf("error objective = %+v", errObj)
	}
	if objs[2].ThresholdMs != 1000 {
		t.Errorf("1s threshold = %g ms", objs[2].ThresholdMs)
	}

	// Bare milliseconds, bare fraction, wildcard route.
	objs, err = ParseSLO("*:p50<5")
	if err != nil || objs[0].Route != "" || objs[0].ThresholdMs != 5 {
		t.Errorf("wildcard route: %+v %v", objs, err)
	}
	objs, err = ParseSLO("err<0.01")
	if err != nil || objs[0].ErrBudget != 0.01 {
		t.Errorf("bare fraction: %+v %v", objs, err)
	}

	for _, bad := range []string{"p99", "p0<10ms", "p100<10ms", "q99<10ms", "err<200%", "err<-1%", "protect:p99<-5ms", "p99<abc"} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
}

// TestParseSLORefusesNonFinite: a NaN or infinite threshold, rate or
// quantile would make an objective that can never go bad; each is
// refused, naming the offending token.
func TestParseSLORefusesNonFinite(t *testing.T) {
	for spec, tok := range map[string]string{
		"p99<NaN":          `"NaN"`,
		"p99<Inf":          `"Inf"`,
		"protect:p50<+Inf": `"+Inf"`,
		"err<NaN":          `"NaN"`,
		"err<NaN%":         `"NaN%"`,
		"err<Inf":          `"Inf"`,
		"pNaN<5ms":         `"pNaN<5ms"`,
	} {
		if objs, err := ParseSLO(spec); err == nil || !strings.Contains(err.Error(), tok) {
			t.Errorf("ParseSLO(%q) = %+v, %v; want an error naming %s", spec, objs, err, tok)
		}
	}
}

// FuzzParseSLO: no spec panics the parser, and every accepted spec
// parses back from each objective's Name() to that same objective.
// Seeds under testdata/fuzz are the specs README and the tests use.
func FuzzParseSLO(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseSLO(spec)
		if err != nil {
			return
		}
		for _, o := range objs {
			again, err := ParseSLO(o.Name())
			if err != nil || len(again) != 1 || again[0] != o {
				t.Fatalf("objective %+v: ParseSLO(%q) = %+v, %v", o, o.Name(), again, err)
			}
		}
	})
}

func TestObjectiveMatchesAndBad(t *testing.T) {
	o := Objective{Route: "protect", Quantile: 0.99, ThresholdMs: 100}
	if !o.Matches("POST /v1/protect") || !o.Matches("PROTECT") || o.Matches("GET /v1/datasets") {
		t.Error("substring route matching broken")
	}
	if (Objective{}).Matches("anything") != true {
		t.Error("empty route must match all")
	}
	if !o.Bad(101, false) || o.Bad(100, false) || o.Bad(1, true) {
		t.Error("latency Bad: strictly over threshold only")
	}
	e := Objective{ErrBudget: 0.1}
	if !e.Bad(1, true) || e.Bad(10000, false) {
		t.Error("error Bad: errors only")
	}
}

func TestEvalBudget(t *testing.T) {
	if burn, state := EvalBudget(0, 0, 0.01); burn != 0 || state != SLOStateOK {
		t.Errorf("no observations: %g %s", burn, state)
	}
	// 2 bad of 100 at 1% budget: burn 2, breach.
	if burn, state := EvalBudget(100, 2, 0.01); burn != 2 || state != SLOStateBreach {
		t.Errorf("breach case: %g %s", burn, state)
	}
	// Exactly at budget: burn 1, warning (not breach).
	if burn, state := EvalBudget(100, 1, 0.01); burn != 1 || state != SLOStateWarning {
		t.Errorf("at-budget case: %g %s", burn, state)
	}
	if _, state := EvalBudget(1000, 1, 0.01); state != SLOStateOK {
		t.Errorf("well under budget must be ok, got %s", state)
	}
	// Zero budget breaches on the first bad request.
	if burn, state := EvalBudget(10, 1, 0); !math.IsInf(burn, 1) || state != SLOStateBreach {
		t.Errorf("zero budget: %g %s", burn, state)
	}
	if _, state := EvalBudget(10, 0, 0); state != SLOStateOK {
		t.Errorf("zero budget with no bad must be ok, got %s", state)
	}
}

func TestWorseSLOState(t *testing.T) {
	if WorseSLOState(SLOStateOK, SLOStateWarning) != SLOStateWarning ||
		WorseSLOState(SLOStateBreach, SLOStateWarning) != SLOStateBreach ||
		WorseSLOState(SLOStateOK, SLOStateOK) != SLOStateOK {
		t.Error("state ordering broken")
	}
}

// testEngine builds an engine with a controllable clock.
func testEngine(t *testing.T, spec string, window time.Duration) (*SLOEngine, *time.Time) {
	t.Helper()
	objs, err := ParseSLO(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := NewSLOEngine(objs, window)
	now := time.Unix(1_700_000_000, 0)
	e.now = func() time.Time { return now }
	return e, &now
}

func TestSLOEngineEvaluates(t *testing.T) {
	e, _ := testEngine(t, "protect:p99<100ms,err<10%", time.Minute)
	for i := 0; i < 98; i++ {
		e.Observe("POST /v1/protect", 5, false)
	}
	e.Observe("POST /v1/protect", 500, false)  // slow: bad for latency only
	e.Observe("POST /v1/protect", 5, true)     // error: bad for err only
	e.Observe("GET /v1/datasets", 10000, true) // other route: ignored

	sts := e.Statuses()
	if len(sts) != 2 {
		t.Fatalf("got %d statuses, want 2", len(sts))
	}
	lat, errSt := sts[0], sts[1]
	if lat.Requests != 100 || lat.Bad != 1 {
		t.Errorf("latency counts = %d/%d, want 1/100", lat.Bad, lat.Requests)
	}
	// 1 bad of 100 at 1% budget: burn exactly 1 → warning.
	if lat.BurnRate != 1 || lat.State != SLOStateWarning {
		t.Errorf("latency burn/state = %g %s", lat.BurnRate, lat.State)
	}
	if lat.ObservedMs <= 0 {
		t.Errorf("latency observed_ms = %g, want > 0", lat.ObservedMs)
	}
	// 1 error of 100 at 10% budget: burn 0.1 → ok.
	if errSt.Bad != 1 || errSt.State != SLOStateOK {
		t.Errorf("error status = %+v", errSt)
	}
}

func TestSLOEngineWindowExpiry(t *testing.T) {
	e, now := testEngine(t, "err<50%", time.Second)
	e.Observe("x", 1, true)
	if sts := e.Statuses(); sts[0].Requests != 1 || sts[0].State != SLOStateBreach {
		t.Fatalf("fresh observation: %+v", sts[0])
	}
	// Step the clock past the whole window; the observation must age out.
	*now = now.Add(2 * time.Second)
	if sts := e.Statuses(); sts[0].Requests != 0 || sts[0].State != SLOStateOK {
		t.Fatalf("expired window: %+v", sts[0])
	}
	// New observations land in fresh slots (stale epochs are reset).
	e.Observe("x", 1, false)
	e.Observe("x", 1, false)
	if sts := e.Statuses(); sts[0].Requests != 2 || sts[0].Bad != 0 {
		t.Fatalf("post-expiry observation: %+v", sts[0])
	}
}

// TestSLOObservedQuantile: observed_ms interpolates inside the SLO
// bucket holding the target rank (metrics.QuantileFromBuckets, the
// estimator behind the pulse _pNN series) and caps at the top finite
// bound, so a latency past it never reports +Inf, which encoding/json
// refuses.
func TestSLOObservedQuantile(t *testing.T) {
	e, now := testEngine(t, "p50<1s,p99<1s", time.Minute)
	for i := 0; i < 90; i++ {
		e.Observe("x", 7, false) // (5, 10] bucket
	}
	for i := 0; i < 10; i++ {
		e.Observe("x", 200, false) // (100, 250] bucket
	}
	sts := e.Statuses()
	if got, want := sts[0].ObservedMs, 5+5*50.0/90; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %g, want %g", got, want)
	}
	if got := sts[1].ObservedMs; math.Abs(got-235) > 1e-9 {
		t.Errorf("p99 = %g, want 235", got)
	}
	*now = now.Add(2 * time.Minute) // age the window out
	e.Observe("x", 20000, false)
	if got := e.Statuses()[1].ObservedMs; got != 10000 {
		t.Errorf("overflow p99 = %g, want the top finite bound 10000", got)
	}
}

func TestSLOGauges(t *testing.T) {
	e, _ := testEngine(t, "err<1%", time.Minute)
	for i := 0; i < 10; i++ {
		e.Observe("x", 1, true)
	}
	g := e.Gauges()
	if g[`slo_state{objective="err<1%"}`] != 2 {
		t.Errorf("slo_state = %d, want 2 (breach)", g[`slo_state{objective="err<1%"}`])
	}
	if g["slo_breaching"] != 1 {
		t.Errorf("slo_breaching = %d, want 1", g["slo_breaching"])
	}
	if g[`slo_burn_rate_milli{objective="err<1%"}`] < 1000 {
		t.Errorf("burn milli = %d, want >= 1000", g[`slo_burn_rate_milli{objective="err<1%"}`])
	}
	// Nil engine is a valid no-op surface.
	var nilEngine *SLOEngine
	if nilEngine.Gauges() != nil || nilEngine.Statuses() != nil {
		t.Error("nil engine must report nothing")
	}
	nilEngine.Observe("x", 1, false) // must not panic
}

func TestSortStatuses(t *testing.T) {
	sts := []SLOStatus{
		{Objective: "b", State: SLOStateOK},
		{Objective: "a", State: SLOStateWarning},
		{Objective: "c", State: SLOStateBreach},
	}
	SortStatuses(sts)
	got := []string{sts[0].Objective, sts[1].Objective, sts[2].Objective}
	if strings.Join(got, ",") != "c,a,b" {
		t.Errorf("order = %v, want worst first", got)
	}
}
