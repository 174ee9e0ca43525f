package experiments

import (
	"fmt"
	"strings"

	"ppclust/internal/core"
	"ppclust/internal/plot"
	"ppclust/internal/rotate"
	"ppclust/internal/stats"
)

// renderFigure draws the two variance curves with their threshold lines and
// appends the computed security range.
func renderFigure(title, nameI, nameJ string, curve *core.VarianceCurve, pst core.PST, ivs []core.Interval) (string, error) {
	thetas, varI, varJ := curve.Sample(181)
	chart := &plot.Chart{
		Title:  title,
		XLabel: "angle θ (degrees)",
		Series: []plot.Series{
			{Name: "Var(" + nameI + " - " + nameI + "')", X: thetas, Y: varI},
			{Name: "Var(" + nameJ + " - " + nameJ + "')", X: thetas, Y: varJ},
		},
		HLines: []plot.HLine{
			{Name: "ρ1", Y: pst.Rho1},
			{Name: "ρ2", Y: pst.Rho2},
		},
	}
	text, err := chart.Render()
	if err != nil {
		return "", err
	}
	var ranges []string
	for _, iv := range ivs {
		ranges = append(ranges, iv.String())
	}
	return text + "security range: " + strings.Join(ranges, " ∪ ") + "\n", nil
}

// Figure2 reproduces Figure 2: the variance curves for pair1 =
// [age, heart_rate] with PST (0.30, 0.55) and the resulting security range.
//
// The upper endpoint matches the paper's 314.97° exactly. The lower
// endpoint is where the discrepancy documented in DESIGN.md/EXPERIMENTS.md
// lives: the feasible set demonstrably starts at 82.69° (the paper prints
// 48.03°, at which Var(heart_rate - heart_rate') = 0.3224 < ρ2 = 0.55; note
// 360 - 314.97 = 45.03 ≈ 48.03, suggesting a symmetric-endpoint misread).
type Figure2 struct{}

// ID implements Experiment.
func (Figure2) ID() string { return "F2" }

// Title implements Experiment.
func (Figure2) Title() string {
	return "Figure 2: security range for Var(age-age') and Var(heart_rate-heart_rate')"
}

// Run implements Experiment.
func (Figure2) Run() (*Outcome, error) {
	nd, err := normalizedCardiac()
	if err != nil {
		return nil, err
	}
	pst := paperThresholds()[0]
	curve, err := core.NewVarianceCurve(nd, paperPairs()[0], stats.Sample)
	if err != nil {
		return nil, err
	}
	ivs, err := curve.SecurityRange(pst, 0)
	if err != nil {
		return nil, err
	}
	text, err := renderFigure(Figure2{}.Title(), "age", "heart_rate", curve, pst, ivs)
	if err != nil {
		return nil, err
	}
	varAtPaperLo, varHRAtPaperLo := curve.At(48.03)
	_ = varAtPaperLo
	checks := []Check{
		{Name: "security range upper endpoint (°)", Expected: 314.97, Measured: ivs[len(ivs)-1].Hi, Tolerance: 0.02},
		{Name: "security range lower endpoint (°)", Expected: 82.69, Measured: ivs[0].Lo, Tolerance: 0.02,
			Note: "paper prints 48.03; see EXPERIMENTS.md erratum note"},
		{Name: "Var(hr-hr') at paper's 48.03° is infeasible", Expected: 0.3224, Measured: varHRAtPaperLo, Tolerance: 1e-3,
			Note: fmt.Sprintf("below ρ2 = %.2f, so 48.03° cannot satisfy the PST", pst.Rho2)},
		{Name: "paper's chosen θ1 inside range (1=yes)", Expected: 1, Measured: boolToFloat(containsAngle(ivs, 312.47)), Tolerance: 0},
	}
	return &Outcome{ID: "F2", Title: Figure2{}.Title(), Text: text, Checks: checks}, nil
}

// Figure3 reproduces Figure 3: the variance curves for pair2 =
// [weight, age'] with PST (2.30, 2.30), computed on the data after the
// first rotation, and the security range [118.74°, 258.70°].
type Figure3 struct{}

// ID implements Experiment.
func (Figure3) ID() string { return "F3" }

// Title implements Experiment.
func (Figure3) Title() string {
	return "Figure 3: security range for Var(weight-weight') and Var(age-age')"
}

// Run implements Experiment.
func (Figure3) Run() (*Outcome, error) {
	nd, err := normalizedCardiac()
	if err != nil {
		return nil, err
	}
	// Apply the first rotation so the curve sees age' (the paper distorts
	// pair2 after pair1).
	if err := rotate.Pair(nd, 0, 2, paperAngles()[0]); err != nil {
		return nil, err
	}
	pst := paperThresholds()[1]
	curve, err := core.NewVarianceCurve(nd, paperPairs()[1], stats.Sample)
	if err != nil {
		return nil, err
	}
	ivs, err := curve.SecurityRange(pst, 0)
	if err != nil {
		return nil, err
	}
	text, err := renderFigure(Figure3{}.Title(), "weight", "age", curve, pst, ivs)
	if err != nil {
		return nil, err
	}
	checks := []Check{
		{Name: "security range lower endpoint (°)", Expected: 118.74, Measured: ivs[0].Lo, Tolerance: 0.02},
		{Name: "security range upper endpoint (°)", Expected: 258.70, Measured: ivs[len(ivs)-1].Hi, Tolerance: 0.02},
		{Name: "paper's chosen θ2 inside range (1=yes)", Expected: 1, Measured: boolToFloat(containsAngle(ivs, 147.29)), Tolerance: 0},
	}
	return &Outcome{ID: "F3", Title: Figure3{}.Title(), Text: text, Checks: checks}, nil
}

func containsAngle(ivs []core.Interval, theta float64) bool {
	for _, iv := range ivs {
		if iv.Contains(theta) {
			return true
		}
	}
	return false
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
