package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ppclust/internal/matrix"
)

// With very asymmetric column variances the feasible set splits into two
// disjoint intervals: Var(Y-Y') ≈ sin²θ·σx² needs |sinθ| large, which holds
// on two separate arcs. SecurityRange must return both.
func TestSecurityRangeDisjointIntervals(t *testing.T) {
	curve := &VarianceCurve{VarX: 1, VarY: 0.05, Cov: 0}
	ivs, err := curve.SecurityRange(PST{Rho1: 0.05, Rho2: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("expected 2 disjoint intervals, got %v", ivs)
	}
	// Sanity: a point inside each interval satisfies the PST, the gap
	// between them does not.
	mid0 := (ivs[0].Lo + ivs[0].Hi) / 2
	mid1 := (ivs[1].Lo + ivs[1].Hi) / 2
	gap := (ivs[0].Hi + ivs[1].Lo) / 2
	pst := PST{Rho1: 0.05, Rho2: 0.5}
	if curve.Margin(mid0, pst) < 0 || curve.Margin(mid1, pst) < 0 {
		t.Fatal("interval midpoints must be feasible")
	}
	if curve.Margin(gap, pst) >= 0 {
		t.Fatal("the gap between intervals must be infeasible")
	}
}

func TestPickAngleDisjointIntervals(t *testing.T) {
	curve := &VarianceCurve{VarX: 1, VarY: 0.05, Cov: 0}
	pst := PST{Rho1: 0.05, Rho2: 0.5}
	ivs, err := curve.SecurityRange(pst, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	hit := make([]bool, len(ivs))
	for i := 0; i < 500; i++ {
		theta := PickAngle(ivs, rng)
		found := false
		for k, iv := range ivs {
			if iv.Contains(theta) {
				hit[k] = true
				found = true
			}
		}
		if !found {
			t.Fatalf("picked %v outside all intervals %v", theta, ivs)
		}
	}
	for k, h := range hit {
		if !h {
			t.Fatalf("interval %d never sampled in 500 draws (weights broken?)", k)
		}
	}
}

// Zero rotation gives zero distortion, so θ = 0 and θ = 360 are never
// feasible for a positive PST: the range must exclude both boundary points.
func TestSecurityRangeExcludesBoundary(t *testing.T) {
	curves := []*VarianceCurve{
		{VarX: 1, VarY: 1, Cov: 0},
		{VarX: 2, VarY: 0.3, Cov: 0.5},
		{VarX: 1, VarY: 1, Cov: -0.69},
	}
	for _, c := range curves {
		ivs, err := c.SecurityRange(PST{Rho1: 0.01, Rho2: 0.01}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ivs[0].Lo <= 0 {
			t.Fatalf("range %v should not start at 0", ivs)
		}
		if ivs[len(ivs)-1].Hi >= 360 {
			t.Fatalf("range %v should not reach 360", ivs)
		}
	}
}

// Property: for random curve parameters and random probe angles, interval
// membership agrees with the sign of the margin function (away from the
// boundary).
func TestQuickSecurityRangeMatchesMargin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vx := 0.2 + rng.Float64()*2
		vy := 0.2 + rng.Float64()*2
		maxCov := math.Sqrt(vx*vy) * 0.95
		curve := &VarianceCurve{VarX: vx, VarY: vy, Cov: (2*rng.Float64() - 1) * maxCov}
		pst := PST{Rho1: 0.05 + rng.Float64()*0.5, Rho2: 0.05 + rng.Float64()*0.5}
		ivs, err := curve.SecurityRange(pst, 0)
		if errors.Is(err, ErrEmptySecurityRange) {
			// Verify emptiness on a probe grid.
			for theta := 0.0; theta < 360; theta += 1 {
				if curve.Margin(theta, pst) > 1e-9 {
					return false
				}
			}
			return true
		}
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			theta := rng.Float64() * 360
			margin := curve.Margin(theta, pst)
			if math.Abs(margin) < 1e-4 {
				continue // too close to a boundary to classify reliably
			}
			inside := false
			for _, iv := range ivs {
				if iv.Contains(theta) {
					inside = true
					break
				}
			}
			if inside != (margin > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the achieved variances reported by Transform equal the curve
// evaluation at the chosen angle, and the angle lies in the reported range.
func TestQuickReportsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := matrix.RandomDense(10+rng.Intn(30), 4, rng)
		res, err := Transform(data, Options{
			Thresholds: []PST{{Rho1: 0.05, Rho2: 0.05}},
			Rand:       rng,
		})
		if err != nil {
			return errors.Is(err, ErrEmptySecurityRange)
		}
		for _, r := range res.Reports {
			inRange := false
			for _, iv := range r.SecurityRange {
				if iv.Contains(r.ThetaDeg) {
					inRange = true
					break
				}
			}
			if !inRange {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// randomCurve draws a variance curve and PST from rng. Thresholds reach up
// to 4·max(σx², σy²), beyond which no angle is feasible, and every fifth
// draw sets ρ1 = 4σx² exactly, which zeroes the quartic's leading
// coefficient and puts a boundary at θ = 180°.
func randomCurve(rng *rand.Rand) (*VarianceCurve, PST) {
	vx := 1e-4 + rng.Float64()*2.5
	vy := 1e-4 + rng.Float64()*2.5
	curve := &VarianceCurve{VarX: vx, VarY: vy, Cov: (2*rng.Float64() - 1) * math.Sqrt(vx*vy)}
	top := 4 * math.Max(vx, vy)
	pst := PST{Rho1: 1e-3 + rng.Float64()*top, Rho2: 1e-3 + rng.Float64()*top}
	if rng.Intn(5) == 0 {
		pst.Rho1 = 4 * vx
	}
	return curve, pst
}

// Oracle: every interval endpoint is a root of the margin to within
// rounding. 0° and 360° never qualify, since the margin there is -ρ.
func TestQuickSecurityRangeEndpointsExact(t *testing.T) {
	f := func(seed int64) bool {
		curve, pst := randomCurve(rand.New(rand.NewSource(seed)))
		ivs, err := curve.SecurityRange(pst, 0)
		if errors.Is(err, ErrEmptySecurityRange) {
			return true
		}
		if err != nil {
			return false
		}
		for i, iv := range ivs {
			if iv.Lo >= iv.Hi || (i > 0 && iv.Lo <= ivs[i-1].Hi) {
				t.Logf("seed %d: intervals %v not disjoint and ascending", seed, ivs)
				return false
			}
			for _, end := range []float64{iv.Lo, iv.Hi} {
				if m := curve.Margin(end, pst); math.Abs(m) > 1e-12 {
					t.Logf("seed %d: %+v %+v endpoint %v has margin %g", seed, curve, pst, end, m)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Oracle: interval membership agrees with a dense 1e-4° scan of the margin
// wherever the margin is clear of zero.
func TestQuickSecurityRangeMatchesDenseScan(t *testing.T) {
	f := func(seed int64) bool {
		curve, pst := randomCurve(rand.New(rand.NewSource(seed)))
		ivs, err := curve.SecurityRange(pst, 0)
		if err != nil && !errors.Is(err, ErrEmptySecurityRange) {
			return false
		}
		if mismatch, ok := denseScanMismatch(curve, pst, ivs); !ok {
			t.Logf("seed %d: %+v %+v: %v disagrees with the margin at %v°", seed, curve, pst, ivs, mismatch)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// denseScanMismatch walks [0°, 360°] in 1e-4° steps and returns the first
// angle whose margin is beyond 1e-9 on the side ivs does not put it.
func denseScanMismatch(curve *VarianceCurve, pst PST, ivs []Interval) (float64, bool) {
	k := 0
	for i := 0; i <= 3_600_000; i++ {
		theta := float64(i) * 1e-4
		for k < len(ivs) && ivs[k].Hi < theta {
			k++
		}
		inside := k < len(ivs) && ivs[k].Contains(theta)
		if m := curve.Margin(theta, pst); math.Abs(m) > 1e-9 && inside != (m > 0) {
			return theta, false
		}
	}
	return 0, true
}

// A PST-violating notch 0.009° wide just above 180°, where ρ1 = 4σx²: the
// 0.01° grid scan this solver replaced probed 180.00° and 180.01°, found
// both feasible, and returned one interval across the notch.
func TestSecurityRangeNotchAbove180(t *testing.T) {
	curve := &VarianceCurve{VarX: 3.758869288192012e-4, VarY: 1.9830992659186235, Cov: -7.574132668102305e-5}
	pst := PST{Rho1: 4 * curve.VarX, Rho2: 1.1732155010490937}
	ivs, err := curve.SecurityRange(pst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("want two intervals either side of the notch, got %v", ivs)
	}
	if math.Abs(ivs[0].Hi-180) > 1e-9 {
		t.Fatalf("first interval %v should end at 180°", ivs[0])
	}
	if gap := ivs[1].Lo - 180; gap < 0.008 || gap > 0.01 {
		t.Fatalf("second interval %v should start about 0.009° above 180°", ivs[1])
	}
	notch := (ivs[0].Hi + ivs[1].Lo) / 2
	if m := curve.Margin(notch, pst); m >= 0 {
		t.Fatalf("margin %g at %v° inside the notch should be negative", m, notch)
	}
	for _, theta := range []float64{180, 180.01} {
		if curve.Margin(theta, pst) < 0 {
			t.Fatalf("grid probe %v° should be feasible", theta)
		}
	}
	if _, ok := denseScanMismatch(curve, pst, ivs); !ok {
		t.Fatal("dense scan disagrees")
	}
}

// Boundaries that fall exactly on the seams between the t = tan(θ/2) and
// u = 1/t charts (90°, 270°) and on t = ∞ (180°, where ρ = 4σ² zeroes the
// leading coefficient) are found once, exactly.
func TestSecurityRangeChartSeams(t *testing.T) {
	cases := []struct {
		name  string
		curve VarianceCurve
		pst   PST
		want  []Interval
	}{
		// Var(X-X') = Var(Y-Y') = 2 - 2cosθ ≥ 2 ⇔ cosθ ≤ 0.
		{"90 and 270", VarianceCurve{VarX: 1, VarY: 1}, PST{Rho1: 2, Rho2: 2}, []Interval{{90, 270}}},
		// Var(X-X') = 4 at 180° with slope 4σxy there; Var(Y-Y') ≥ 0.1
		// holds well clear of 180°.
		{"180 from the right", VarianceCurve{VarX: 1, VarY: 0.5, Cov: 0.3}, PST{Rho1: 4, Rho2: 0.1}, nil},
		{"180 from the left", VarianceCurve{VarX: 1, VarY: 0.5, Cov: -0.3}, PST{Rho1: 4, Rho2: 0.1}, nil},
		{"zero leading coefficient in rho2", VarianceCurve{VarX: 0.5, VarY: 1, Cov: 0.3}, PST{Rho1: 0.1, Rho2: 4}, nil},
		// Var(X-X') = σx² + σy² + 2σxy at 270°.
		{"270 only", VarianceCurve{VarX: 1, VarY: 1, Cov: 0.2}, PST{Rho1: 2.4, Rho2: 0.1}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ivs, err := tc.curve.SecurityRange(tc.pst, 0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want != nil {
				if len(ivs) != len(tc.want) {
					t.Fatalf("got %v, want %v", ivs, tc.want)
				}
				for i := range ivs {
					if math.Abs(ivs[i].Lo-tc.want[i].Lo) > 1e-9 || math.Abs(ivs[i].Hi-tc.want[i].Hi) > 1e-9 {
						t.Fatalf("got %v, want %v", ivs, tc.want)
					}
				}
			}
			seam := false
			for _, iv := range ivs {
				for _, end := range []float64{iv.Lo, iv.Hi} {
					for _, s := range []float64{90, 180, 270} {
						if math.Abs(end-s) < 1e-9 {
							seam = true
						}
					}
				}
			}
			if !seam {
				t.Fatalf("no endpoint of %v on a seam", ivs)
			}
			if _, ok := denseScanMismatch(&tc.curve, tc.pst, ivs); !ok {
				t.Fatalf("dense scan disagrees with %v", ivs)
			}
		})
	}
}

// For an uncorrelated unit-variance pair Var(X-X') = 2 - 2cosθ ≤ 4, so a
// threshold above 4 leaves nothing.
func TestSecurityRangeEmpty(t *testing.T) {
	curve := &VarianceCurve{VarX: 1, VarY: 1}
	if ivs, err := curve.SecurityRange(PST{Rho1: 4.5, Rho2: 0.1}, 0); !errors.Is(err, ErrEmptySecurityRange) {
		t.Fatalf("got %v, %v; want ErrEmptySecurityRange", ivs, err)
	}
}

// The solver allocates nothing but the returned intervals.
func TestSecurityRangeAllocs(t *testing.T) {
	curve := &VarianceCurve{VarX: 1, VarY: 0.05, Cov: 0}
	pst := PST{Rho1: 0.05, Rho2: 0.5}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := curve.SecurityRange(pst, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("SecurityRange made %v allocations, want 1", allocs)
	}
}
