package core

import (
	"fmt"
	"math"
	"math/rand"

	"ppclust/internal/matrix"
	"ppclust/internal/rotate"
	"ppclust/internal/stats"
)

// VarianceCurve evaluates the security variances of a candidate rotation
// analytically, as closed-form functions of the angle. For the ordered pair
// (X, Y) rotated by Eq. (1):
//
//	X' =  X·cosθ + Y·sinθ      =>  X - X' = (1-cosθ)·X - sinθ·Y
//	Y' = -X·sinθ + Y·cosθ      =>  Y - Y' = sinθ·X + (1-cosθ)·Y
//
// so with column variances σx², σy² and covariance σxy:
//
//	Var(X-X') = (1-cosθ)²σx² + sin²θ·σy² - 2(1-cosθ)sinθ·σxy
//	Var(Y-Y') = sin²θ·σx² + (1-cosθ)²σy² + 2(1-cosθ)sinθ·σxy
//
// Evaluating the curve is O(1) per angle after an O(m) statistics pass,
// which is what keeps the RBT algorithm inside Theorem 1's O(m·n) bound.
type VarianceCurve struct {
	VarX, VarY, Cov float64
}

// NewVarianceCurve computes the column statistics of the ordered pair
// (p.I, p.J) of data under denominator d.
func NewVarianceCurve(data *matrix.Dense, p Pair, d stats.Denominator) (*VarianceCurve, error) {
	if err := p.Valid(data.Cols()); err != nil {
		return nil, err
	}
	if data.Rows() < 2 {
		return nil, fmt.Errorf("%w: need at least 2 rows, got %d", ErrBadInput, data.Rows())
	}
	x, y := data.Col(p.I), data.Col(p.J)
	return &VarianceCurve{
		VarX: stats.Variance(x, d),
		VarY: stats.Variance(y, d),
		Cov:  stats.Covariance(x, y, d),
	}, nil
}

// At returns (Var(X-X'), Var(Y-Y')) at θ degrees.
func (c *VarianceCurve) At(thetaDeg float64) (varX, varY float64) {
	rad := rotate.Degrees(thetaDeg)
	cos, sin := math.Cos(rad), math.Sin(rad)
	omc := 1 - cos
	varX = omc*omc*c.VarX + sin*sin*c.VarY - 2*omc*sin*c.Cov
	varY = sin*sin*c.VarX + omc*omc*c.VarY + 2*omc*sin*c.Cov
	return varX, varY
}

// Margin returns min(Var(X-X') - ρ1, Var(Y-Y') - ρ2) at θ: nonnegative
// exactly when θ satisfies the PST.
func (c *VarianceCurve) Margin(thetaDeg float64, t PST) float64 {
	vx, vy := c.At(thetaDeg)
	return math.Min(vx-t.Rho1, vy-t.Rho2)
}

// Sample evaluates the two curves at evenly spaced angles over [0, 360),
// for plotting Figures 2-3. It returns the angles and the two series.
func (c *VarianceCurve) Sample(points int) (thetas, varX, varY []float64) {
	if points < 2 {
		points = 2
	}
	thetas = make([]float64, points)
	varX = make([]float64, points)
	varY = make([]float64, points)
	step := 360.0 / float64(points-1)
	for k := range thetas {
		thetas[k] = float64(k) * step
		varX[k], varY[k] = c.At(thetas[k])
	}
	return thetas, varX, varY
}

// Interval is a closed angle interval [Lo, Hi] in degrees within [0, 360].
type Interval struct {
	Lo, Hi float64
}

// Width returns the interval length in degrees.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether θ (already in [0,360]) lies in the interval.
func (iv Interval) Contains(theta float64) bool { return theta >= iv.Lo && theta <= iv.Hi }

// String renders the interval as the paper does ("48.03 to 314.97 degrees").
func (iv Interval) String() string { return fmt.Sprintf("[%.2f°, %.2f°]", iv.Lo, iv.Hi) }

// SecurityRange computes the set of angles in [0, 360] whose rotation
// satisfies the PST — the "security range" of Section 4.3 Step 2(c) — as a
// union of disjoint intervals with exact endpoints.
//
// With t = tan(θ/2), 1-cosθ = 2t²/(1+t²) and sinθ = 2t/(1+t²), so
// multiplying each constraint by (1+t²)² > 0 turns its boundary into a
// quartic in t:
//
//	Var(X-X') = ρ1  ⇔  (4σx²-ρ1)t⁴ - 8σxy·t³ + (4σy²-2ρ1)t² - ρ1 = 0
//	Var(Y-Y') = ρ2  ⇔  (4σy²-ρ2)t⁴ + 8σxy·t³ + (4σx²-2ρ2)t² - ρ2 = 0
//
// Roots with |t| ≤ 1 are the boundaries in [0°, 90°] ∪ [270°, 360°]; the
// reversed polynomials in u = 1/t = cot(θ/2) with |u| ≤ 1 give those in
// [90°, 270°], so θ = 180° is the ordinary root u = 0 rather than t = ∞.
// The at most eight boundaries cut [0°, 360°] into pieces on which the
// margin keeps its sign; a piece is feasible when the margin at its
// midpoint is nonnegative, and feasible neighbours merge. The only
// allocation is the returned slice.
//
// The second argument is unused. It was the resolution of the grid scan
// this solver replaced and stays only so existing callers still compile.
func (c *VarianceCurve) SecurityRange(t PST, _ float64) ([]Interval, error) {
	if err := t.Valid(); err != nil {
		return nil, err
	}
	a, b, cov := c.VarX, c.VarY, c.Cov
	// Coefficients in ascending powers of t.
	quartics := [2][5]float64{
		{-t.Rho1, 0, 4*b - 2*t.Rho1, -8 * cov, 4*a - t.Rho1},
		{-t.Rho2, 0, 4*a - 2*t.Rho2, 8 * cov, 4*b - t.Rho2},
	}
	var cuts [2 + 2*2*4]float64 // 0°, 360° and ≤ 4 roots per quartic per chart
	cuts[1] = 360
	n := 2
	var roots [4]float64
	for _, q := range quartics {
		for _, x := range roots[:realRoots(&q, &roots)] {
			theta := math.Atan(x) * (360 / math.Pi)
			if theta < 0 {
				theta += 360
			}
			cuts[n] = theta
			n++
		}
		rev := [5]float64{q[4], q[3], q[2], q[1], q[0]}
		for _, u := range roots[:realRoots(&rev, &roots)] {
			cuts[n] = math.Atan2(1, u) * (360 / math.Pi)
			n++
		}
	}
	for i := 1; i < n; i++ { // insertion sort: n ≤ 18
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	var ivs [len(cuts)]Interval
	k := 0
	for i := 0; i+1 < n; i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo || c.Margin(lo+(hi-lo)/2, t) < 0 {
			continue
		}
		if k > 0 && ivs[k-1].Hi == lo {
			ivs[k-1].Hi = hi
		} else {
			ivs[k] = Interval{Lo: lo, Hi: hi}
			k++
		}
	}
	if k == 0 {
		return nil, ErrEmptySecurityRange
	}
	return append([]Interval(nil), ivs[:k]...), nil
}

// realRoots stores in roots, ascending, the real roots in [-1, 1] of the
// polynomial p[0] + p[1]·x + … + p[4]·x⁴ (leading coefficients may be
// zero) and returns how many there are. The roots of each derivative cut
// [-1, 1] into pieces on which the derivative one order lower is
// monotone, so each piece holds at most one of its roots: the linear p‴
// is solved directly, then p″, p′ and p piece by piece.
func realRoots(p *[5]float64, roots *[4]float64) int {
	var d [4][5]float64 // d[k] is the k-th derivative of p
	d[0] = *p
	for k := 1; k < 4; k++ {
		for i := 1; i < 5; i++ {
			d[k][i-1] = float64(i) * d[k-1][i]
		}
	}
	var crit [4]float64
	n := 0
	if d[3][1] != 0 {
		if x := -d[3][0] / d[3][1]; x > -1 && x < 1 {
			crit[0], n = x, 1
		}
	}
	for k := 2; k >= 0; k-- {
		var next [4]float64
		m := 0
		lo := -1.0
		for i := 0; i <= n; i++ {
			hi := 1.0
			if i < n {
				hi = crit[i]
			}
			if x, ok := monotoneRoot(&d[k], lo, hi); ok && (m == 0 || x > next[m-1]) {
				next[m] = x
				m++
			}
			lo = hi
		}
		crit, n = next, m
	}
	*roots = crit
	return n
}

// monotoneRoot finds the root of p in [lo, hi], on which p is monotone,
// by bisection to adjacent floats (or a width of 2⁻⁷⁹ near zero). It
// reports false when p has the same nonzero sign at both ends.
func monotoneRoot(p *[5]float64, lo, hi float64) (float64, bool) {
	flo, fhi := horner(p, lo), horner(p, hi)
	switch {
	case flo == 0:
		return lo, true
	case fhi == 0:
		return hi, true
	case (flo < 0) == (fhi < 0):
		return 0, false
	}
	for range 80 {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		fm := horner(p, mid)
		if fm == 0 {
			return mid, true
		}
		if (fm < 0) == (flo < 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, true
}

// horner evaluates p[0] + p[1]·x + … + p[4]·x⁴.
func horner(p *[5]float64, x float64) float64 {
	return (((p[4]*x+p[3])*x+p[2])*x+p[1])*x + p[0]
}

// TotalWidth sums the widths of a set of intervals.
func TotalWidth(ivs []Interval) float64 {
	var w float64
	for _, iv := range ivs {
		w += iv.Width()
	}
	return w
}

// PickAngle draws an angle uniformly at random from the union of intervals,
// implementing Step 2(c)'s "randomly select a real number in this range".
func PickAngle(ivs []Interval, rng *rand.Rand) float64 {
	total := TotalWidth(ivs)
	u := rng.Float64() * total
	for _, iv := range ivs {
		if u <= iv.Width() {
			return iv.Lo + u
		}
		u -= iv.Width()
	}
	return ivs[len(ivs)-1].Hi
}
