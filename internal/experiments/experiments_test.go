package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsPass runs the complete reproduction suite and asserts
// every paper-vs-measured check holds.
func TestAllExperimentsPass(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID(), func(t *testing.T) {
			if e.ID() == "TH1" && testing.Short() {
				t.Skip("timing sweep skipped in -short mode")
			}
			exp := e
			// Shrink the Theorem 1 sweep for test runs; ppcbench uses the
			// full sizes. Sizes start large enough that the constant-cost
			// security-range scan does not flatten the fitted slope.
			if e.ID() == "TH1" {
				exp = Theorem1{Ms: []int{4000, 8000, 16000, 32000}, Ns: []int{8, 16, 32, 64}, Repeats: 3}
			}
			out, err := exp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if out.Text == "" {
				t.Fatal("empty report text")
			}
			if len(out.Checks) == 0 {
				t.Fatal("no checks")
			}
			for _, c := range out.Checks {
				if !c.Pass() {
					t.Errorf("check failed: %s", c)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("T3")
	if err != nil || e.ID() != "T3" {
		t.Fatalf("ByID(T3) = %v, %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown ID should error")
	}
}

func TestCheckString(t *testing.T) {
	ok := Check{Name: "x", Expected: 1, Measured: 1, Tolerance: 0}
	if !strings.Contains(ok.String(), "[ok]") {
		t.Fatalf("check string = %q", ok.String())
	}
	bad := Check{Name: "x", Expected: 1, Measured: 2, Tolerance: 0, Note: "why"}
	s := bad.String()
	if !strings.Contains(s, "MISMATCH") || !strings.Contains(s, "why") {
		t.Fatalf("check string = %q", s)
	}
}

func TestOutcomeAllPass(t *testing.T) {
	o := &Outcome{Checks: []Check{{Expected: 1, Measured: 1}}}
	if !o.AllPass() {
		t.Fatal("should pass")
	}
	o.Checks = append(o.Checks, Check{Expected: 1, Measured: 5})
	if o.AllPass() {
		t.Fatal("should fail")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID()] {
			t.Fatalf("duplicate experiment ID %s", e.ID())
		}
		seen[e.ID()] = true
		if e.Title() == "" {
			t.Fatalf("experiment %s has no title", e.ID())
		}
	}
	if len(seen) != 19 {
		t.Fatalf("expected 19 experiments, got %d", len(seen))
	}
}
