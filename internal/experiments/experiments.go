// Package experiments contains one runnable reproduction per table and
// figure of the paper, plus the extended experiments (complexity, algorithm
// independence, baseline comparison, attack suite) described in DESIGN.md.
//
// Each experiment returns an Outcome holding a rendered text report and a
// list of Checks comparing the paper's printed values against our measured
// ones. cmd/ppcbench prints them all; the package's tests assert every
// check passes.
package experiments

import (
	"fmt"
	"math"

	"ppclust/internal/core"
	"ppclust/internal/dataset"
	"ppclust/internal/matrix"
	"ppclust/internal/norm"
	"ppclust/internal/stats"
)

// Check compares a paper-reported value with a measured one.
type Check struct {
	// Name describes the quantity.
	Name string
	// Expected is the paper's value (or an analytic expectation for
	// extension experiments).
	Expected float64
	// Measured is what this implementation produced.
	Measured float64
	// Tolerance is the allowed absolute deviation.
	Tolerance float64
	// Note carries context, e.g. the Figure 2 erratum.
	Note string
}

// Pass reports whether the measured value is within tolerance.
func (c Check) Pass() bool {
	return !math.IsNaN(c.Measured) && math.Abs(c.Expected-c.Measured) <= c.Tolerance
}

// String renders the check as one report line.
func (c Check) String() string {
	status := "ok"
	if !c.Pass() {
		status = "MISMATCH"
	}
	s := fmt.Sprintf("[%s] %-45s expected %10.4f measured %10.4f (tol %g)",
		status, c.Name, c.Expected, c.Measured, c.Tolerance)
	if c.Note != "" {
		s += " — " + c.Note
	}
	return s
}

// Outcome is the result of one experiment run.
type Outcome struct {
	ID     string
	Title  string
	Text   string
	Checks []Check
}

// AllPass reports whether every check passed.
func (o *Outcome) AllPass() bool {
	for _, c := range o.Checks {
		if !c.Pass() {
			return false
		}
	}
	return true
}

// Experiment is one reproducible unit keyed to a paper artifact.
type Experiment interface {
	// ID is the experiment key from DESIGN.md (T1..T6, F2, F3, TH1, TH2,
	// C1, EXT1..EXT4).
	ID() string
	// Title is a one-line description.
	Title() string
	// Run executes the experiment. Implementations are deterministic.
	Run() (*Outcome, error)
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		Table1{}, Table2{}, Figure2{}, Figure3{}, Table3{}, Table4{},
		Table5{}, Table6{}, Theorem1{}, Theorem2{}, Corollary1{},
		Ext1VarianceFingerprint{}, Ext2SecuritySweep{},
		Ext3BaselineComparison{}, Ext4AttackSuite{}, Ext5Multiparty{},
		Ext6TradeoffFrontier{},
		Abl2PairStrategy{}, Abl3Normalization{},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID() == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// --- shared fixtures -------------------------------------------------------

// paperPairs and paperThresholds reproduce the Section 5.1 configuration.
func paperPairs() []core.Pair { return []core.Pair{{I: 0, J: 2}, {I: 1, J: 0}} }

func paperThresholds() []core.PST {
	return []core.PST{{Rho1: 0.30, Rho2: 0.55}, {Rho1: 2.30, Rho2: 2.30}}
}

func paperAngles() []float64 { return []float64{312.47, 147.29} }

// normalizedCardiac z-scores the embedded Table 1 sample with the sample
// (N-1) convention, matching Table 2.
func normalizedCardiac() (*matrix.Dense, error) {
	z := &norm.ZScore{Denominator: stats.Sample}
	return norm.FitTransform(z, dataset.CardiacSample().Data)
}

// paperTransform runs RBT with the paper's exact pairs, thresholds and
// angles and returns both the normalized input and the result.
func paperTransform() (normalized *matrix.Dense, res *core.Result, err error) {
	normalized, err = normalizedCardiac()
	if err != nil {
		return nil, nil, err
	}
	res, err = core.Transform(normalized, core.Options{
		Pairs:       paperPairs(),
		Thresholds:  paperThresholds(),
		FixedAngles: paperAngles(),
	})
	return normalized, res, err
}

// maxAbsDiffAgainstTriangle compares a computed lower triangle against a
// printed one and returns the largest absolute difference.
func maxAbsDiffAgainstTriangle(got, want [][]float64) float64 {
	var maxDiff float64
	for i := range want {
		for j := range want[i] {
			if d := math.Abs(got[i][j] - want[i][j]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	return maxDiff
}
