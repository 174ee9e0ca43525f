package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ppclust/internal/dataset"
	"ppclust/internal/dist"
	"ppclust/internal/matrix"
	"ppclust/internal/norm"
	"ppclust/internal/stats"
)

// paperOptions reproduces the worked example of Section 5.1 exactly:
// pair1 = [age, heart_rate] at θ1 = 312.47°, pair2 = [weight, age′] at
// θ2 = 147.29°, PST1 = (0.30, 0.55), PST2 = (2.30, 2.30).
func paperOptions() Options {
	return Options{
		Pairs:       []Pair{{I: 0, J: 2}, {I: 1, J: 0}},
		Thresholds:  []PST{{Rho1: 0.30, Rho2: 0.55}, {Rho1: 2.30, Rho2: 2.30}},
		FixedAngles: []float64{312.47, 147.29},
	}
}

func normalizedCardiac(t *testing.T) *matrix.Dense {
	t.Helper()
	z := &norm.ZScore{Denominator: stats.Sample}
	nd, err := norm.FitTransform(z, dataset.CardiacSample().Data)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// Table 3: the full RBT pipeline must reproduce the paper's transformed
// database to its printed precision (4 decimals).
func TestTransformReproducesTable3(t *testing.T) {
	res, err := Transform(normalizedCardiac(t), paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := dataset.CardiacTransformed().Data
	if !matrix.EqualApprox(res.DPrime, want, 5e-5) {
		t.Fatalf("RBT does not reproduce Table 3:\n%v\nwant\n%v", res.DPrime, want)
	}
}

// Section 5.1's achieved security variances: 0.318, 0.9805 for pair 1 and
// 2.9714, 6.9274 for pair 2 (sample denominator).
func TestTransformReproducesPaperVariances(t *testing.T) {
	res, err := Transform(normalizedCardiac(t), paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ varI, varJ float64 }{
		{0.318, 0.9805},
		{2.9714, 6.9274},
	}
	tol := []struct{ i, j float64 }{{1e-3, 1e-4}, {1e-4, 1e-4}}
	for k, w := range want {
		r := res.Reports[k]
		if math.Abs(r.VarI-w.varI) > tol[k].i {
			t.Fatalf("pair %d VarI = %v, paper says %v", k, r.VarI, w.varI)
		}
		if math.Abs(r.VarJ-w.varJ) > tol[k].j {
			t.Fatalf("pair %d VarJ = %v, paper says %v", k, r.VarJ, w.varJ)
		}
	}
}

// Figure 3: the security range for pair2 = [weight, age′] with
// PST = (2.30, 2.30), computed on the data after the first rotation, is
// [118.74°, 258.70°] in the paper.
func TestSecurityRangeReproducesFigure3(t *testing.T) {
	res, err := Transform(normalizedCardiac(t), paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	ivs := res.Reports[1].SecurityRange
	if len(ivs) != 1 {
		t.Fatalf("expected a single interval, got %v", ivs)
	}
	if math.Abs(ivs[0].Lo-118.74) > 0.02 || math.Abs(ivs[0].Hi-258.70) > 0.02 {
		t.Fatalf("Figure 3 range = %v, paper says [118.74, 258.70]", ivs[0])
	}
}

// Figure 2: the paper claims the range [48.03°, 314.97°] for pair1 with
// PST = (0.30, 0.55). Our analytic computation reproduces the upper
// endpoint (314.97°, where Var(age-age′) crosses ρ1 = 0.30) exactly, but
// the feasible set's lower endpoint is 82.69° — at the paper's 48.03° (and
// anywhere below ~82.7°) Var(heart_rate-heart_rate′) is provably below
// ρ2 = 0.55 (e.g. 0.40 at θ = 60°). The paper's own chosen angle 312.47°
// lies in both ranges; we pin our computed endpoints and flag the
// discrepancy in EXPERIMENTS.md as a likely erratum (note that
// 360 - 314.97 = 45.03 ≈ the printed 48.03, suggesting a symmetric-endpoint
// misread).
func TestSecurityRangeFigure2(t *testing.T) {
	nd := normalizedCardiac(t)
	curve, err := NewVarianceCurve(nd, Pair{I: 0, J: 2}, stats.Sample)
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := curve.SecurityRange(PST{Rho1: 0.30, Rho2: 0.55}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 {
		t.Fatalf("expected a single interval, got %v", ivs)
	}
	if math.Abs(ivs[0].Hi-314.97) > 0.02 {
		t.Fatalf("Figure 2 upper endpoint = %v, paper says 314.97", ivs[0].Hi)
	}
	if math.Abs(ivs[0].Lo-82.69) > 0.02 {
		t.Fatalf("Figure 2 lower endpoint = %v, our verified value is 82.69", ivs[0].Lo)
	}
	if !ivs[0].Contains(312.47) {
		t.Fatal("the paper's chosen θ1 = 312.47 must lie in the security range")
	}
	// Independent witness that the paper's 48.03 cannot be feasible: at 60°
	// the heart_rate constraint is clearly violated.
	_, varHR := curve.At(60)
	if varHR >= 0.55 {
		t.Fatalf("expected Var(hr-hr') < 0.55 at 60°, got %v", varHR)
	}
}

// The empirically achieved variances must match the analytic curve — the
// closed form is what keeps the algorithm O(m·n).
func TestVarianceCurveMatchesEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := matrix.RandomDense(40, 3, rng)
	p := Pair{I: 2, J: 0}
	curve, err := NewVarianceCurve(data, p, stats.Sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{10, 45, 123.4, 200, 359} {
		res, err := Transform(data, Options{
			Pairs:       []Pair{p, {I: 1, J: 0}},
			Thresholds:  []PST{{Rho1: 1e-9, Rho2: 1e-9}},
			FixedAngles: []float64{theta, 90},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Empirical: Var of (original column - transformed column).
		wantI, wantJ := curve.At(theta)
		diffI := matrix.SubVec(data.Col(p.I), res.DPrime.Col(p.I))
		diffJ := matrix.SubVec(data.Col(p.J), res.DPrime.Col(p.J))
		_ = diffJ
		empI := stats.Variance(diffI, stats.Sample)
		if math.Abs(empI-wantI) > 1e-9 {
			t.Fatalf("θ=%v: empirical VarI %v vs analytic %v", theta, empI, wantI)
		}
		// Column J of DPrime was further rotated by the second pair, so
		// compare the report instead for J.
		if math.Abs(res.Reports[0].VarJ-wantJ) > 1e-9 {
			t.Fatalf("θ=%v: reported VarJ %v vs analytic %v", theta, res.Reports[0].VarJ, wantJ)
		}
	}
}

func TestTransformDefaultsAndDeterminism(t *testing.T) {
	rng1 := rand.New(rand.NewSource(99))
	rng2 := rand.New(rand.NewSource(99))
	data := matrix.RandomDense(30, 4, rand.New(rand.NewSource(1)))
	a, err := Transform(data, Options{Thresholds: []PST{{Rho1: 0.1, Rho2: 0.1}}, Rand: rng1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Transform(data, Options{Thresholds: []PST{{Rho1: 0.1, Rho2: 0.1}}, Rand: rng2})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(a.DPrime, b.DPrime) {
		t.Fatal("same seed must give identical transforms")
	}
	// Default pairs for 4 attributes: (0,1), (2,3).
	if len(a.Key.Pairs) != 2 || a.Key.Pairs[0] != (Pair{I: 0, J: 1}) || a.Key.Pairs[1] != (Pair{I: 2, J: 3}) {
		t.Fatalf("default pairs = %v", a.Key.Pairs)
	}
	// Nil Rand must also be deterministic.
	c, err := Transform(data, Options{Thresholds: []PST{{Rho1: 0.1, Rho2: 0.1}}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Transform(data, Options{Thresholds: []PST{{Rho1: 0.1, Rho2: 0.1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(c.DPrime, d.DPrime) {
		t.Fatal("nil Rand should default to a fixed seed")
	}
}

func TestTransformInputErrors(t *testing.T) {
	okData := matrix.RandomDense(10, 4, rand.New(rand.NewSource(2)))
	okOpts := Options{Thresholds: []PST{{Rho1: 0.1, Rho2: 0.1}}}
	cases := []struct {
		name string
		data *matrix.Dense
		opts Options
		want error
	}{
		{"one row", matrix.NewDense(1, 4, nil), okOpts, ErrBadInput},
		{"one column", matrix.NewDense(10, 1, nil), okOpts, ErrBadInput},
		{"nan", matrix.FromRows([][]float64{{math.NaN(), 1}, {2, 3}}), okOpts, ErrBadInput},
		{"no thresholds", okData, Options{}, ErrBadThreshold},
		{"bad threshold", okData, Options{Thresholds: []PST{{Rho1: -1, Rho2: 1}}}, ErrBadThreshold},
		{"threshold count", okData, Options{Thresholds: []PST{{Rho1: 1, Rho2: 1}, {Rho1: 1, Rho2: 1}, {Rho1: 1, Rho2: 1}}}, ErrBadInput},
		{"bad pair", okData, Options{Pairs: []Pair{{I: 0, J: 0}}, Thresholds: []PST{{Rho1: 0.1, Rho2: 0.1}}}, ErrBadPair},
		{"uncovered attribute", okData, Options{Pairs: []Pair{{I: 0, J: 1}}, Thresholds: []PST{{Rho1: 0.1, Rho2: 0.1}}}, ErrBadPair},
		{"fixed angle count", okData, Options{Thresholds: []PST{{Rho1: 0.1, Rho2: 0.1}}, FixedAngles: []float64{5}}, ErrBadInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Transform(tc.data, tc.opts); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestTransformEmptySecurityRange(t *testing.T) {
	// Max achievable Var(X-X') on unit-variance uncorrelated columns is 4
	// (at θ=180°); a threshold of 100 is unsatisfiable.
	data := normalizedCardiac(t)
	_, err := Transform(data, Options{Thresholds: []PST{{Rho1: 100, Rho2: 100}}})
	if !errors.Is(err, ErrEmptySecurityRange) {
		t.Fatalf("err = %v, want ErrEmptySecurityRange", err)
	}
}

func TestTransformFixedAngleViolatingPST(t *testing.T) {
	data := normalizedCardiac(t)
	opts := paperOptions()
	opts.FixedAngles = []float64{1, 147.29} // θ=1° gives ~zero distortion
	if _, err := Transform(data, opts); !errors.Is(err, ErrEmptySecurityRange) {
		t.Fatalf("err = %v, want PST violation", err)
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	data := normalizedCardiac(t)
	snapshot := data.Clone()
	if _, err := Transform(data, paperOptions()); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(data, snapshot) {
		t.Fatal("Transform must not mutate its input")
	}
}

func TestTransformOddAttributeCount(t *testing.T) {
	data := matrix.RandomDense(20, 5, rand.New(rand.NewSource(3)))
	res, err := Transform(data, Options{Thresholds: []PST{{Rho1: 0.05, Rho2: 0.05}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Key.Pairs) != 3 {
		t.Fatalf("5 attributes need 3 pairs, got %v", res.Key.Pairs)
	}
	// Every attribute must be covered.
	if err := ValidatePairs(res.Key.Pairs, 5); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinPairs(t *testing.T) {
	if RoundRobinPairs(1) != nil {
		t.Fatal("n<2 should give nil")
	}
	even := RoundRobinPairs(4)
	if len(even) != 2 || even[1] != (Pair{I: 2, J: 3}) {
		t.Fatalf("even pairs = %v", even)
	}
	odd := RoundRobinPairs(3)
	if len(odd) != 2 || odd[1] != (Pair{I: 2, J: 0}) {
		t.Fatalf("odd pairs = %v", odd)
	}
	if err := ValidatePairs(odd, 3); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 3, 4, 7, 10} {
		pairs := RandomPairs(n, rng)
		if err := ValidatePairs(pairs, n); err != nil {
			t.Fatalf("n=%d: %v (pairs %v)", n, err, pairs)
		}
		want := n / 2
		if n%2 == 1 {
			want = (n + 1) / 2
		}
		if len(pairs) != want {
			t.Fatalf("n=%d: %d pairs, want %d", n, len(pairs), want)
		}
	}
	if RandomPairs(1, rng) != nil {
		t.Fatal("n<2 should give nil")
	}
}

func TestValidatePairsErrors(t *testing.T) {
	if err := ValidatePairs(nil, 3); !errors.Is(err, ErrBadPair) {
		t.Fatal("empty pairs should fail")
	}
	if err := ValidatePairs([]Pair{{I: 0, J: 5}}, 3); !errors.Is(err, ErrBadPair) {
		t.Fatal("out of range should fail")
	}
	if err := ValidatePairs([]Pair{{I: 0, J: 1}}, 3); !errors.Is(err, ErrBadPair) {
		t.Fatal("uncovered attribute should fail")
	}
}

func TestPSTValid(t *testing.T) {
	if err := (PST{Rho1: 0, Rho2: 1}).Valid(); !errors.Is(err, ErrBadThreshold) {
		t.Fatal("zero rho1 should fail")
	}
	if err := (PST{Rho1: 1, Rho2: -2}).Valid(); !errors.Is(err, ErrBadThreshold) {
		t.Fatal("negative rho2 should fail")
	}
	if err := (PST{Rho1: 0.1, Rho2: 0.1}).Valid(); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 40}
	if iv.Width() != 30 || !iv.Contains(25) || iv.Contains(41) {
		t.Fatalf("interval helpers broken: %v", iv)
	}
	if iv.String() == "" {
		t.Fatal("String empty")
	}
	if TotalWidth([]Interval{{Lo: 0, Hi: 10}, {Lo: 20, Hi: 25}}) != 15 {
		t.Fatal("TotalWidth wrong")
	}
}

func TestPickAngleInsideRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ivs := []Interval{{Lo: 10, Hi: 20}, {Lo: 300, Hi: 350}}
	for i := 0; i < 200; i++ {
		theta := PickAngle(ivs, rng)
		if !(ivs[0].Contains(theta) || ivs[1].Contains(theta)) {
			t.Fatalf("picked %v outside ranges", theta)
		}
	}
}

func TestNewVarianceCurveErrors(t *testing.T) {
	data := matrix.RandomDense(5, 3, rand.New(rand.NewSource(7)))
	if _, err := NewVarianceCurve(data, Pair{I: 0, J: 0}, stats.Sample); !errors.Is(err, ErrBadPair) {
		t.Fatal("bad pair should fail")
	}
	one := matrix.NewDense(1, 3, nil)
	if _, err := NewVarianceCurve(one, Pair{I: 0, J: 1}, stats.Sample); !errors.Is(err, ErrBadInput) {
		t.Fatal("single row should fail")
	}
}

func TestVarianceCurveSample(t *testing.T) {
	data := normalizedCardiac(t)
	curve, err := NewVarianceCurve(data, Pair{I: 0, J: 2}, stats.Sample)
	if err != nil {
		t.Fatal(err)
	}
	thetas, vx, vy := curve.Sample(361)
	if len(thetas) != 361 || thetas[0] != 0 || thetas[360] != 360 {
		t.Fatalf("sample grid wrong: %v..%v", thetas[0], thetas[len(thetas)-1])
	}
	// At θ=0 there is no distortion.
	if vx[0] != 0 || vy[0] != 0 {
		t.Fatal("zero rotation must give zero security variance")
	}
	// Degenerate request is clamped.
	th, _, _ := curve.Sample(1)
	if len(th) != 2 {
		t.Fatal("Sample should clamp to at least 2 points")
	}
}

func TestSecurityRangeBadThreshold(t *testing.T) {
	curve := &VarianceCurve{VarX: 1, VarY: 1, Cov: 0}
	if _, err := curve.SecurityRange(PST{Rho1: 0, Rho2: 1}, 0); !errors.Is(err, ErrBadThreshold) {
		t.Fatal("invalid PST should fail")
	}
}

// TestPSTRefusesNonFinite: NaN fails every comparison, so a NaN
// threshold used to pass Valid and make the whole circle secure; NaN and
// ±Inf in either slot are refused, by Valid and by SecurityRange.
func TestPSTRefusesNonFinite(t *testing.T) {
	curve := &VarianceCurve{VarX: 1, VarY: 1, Cov: 0}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, pst := range []PST{{Rho1: bad, Rho2: 0.3}, {Rho1: 0.3, Rho2: bad}, {Rho1: bad, Rho2: bad}} {
			if err := pst.Valid(); !errors.Is(err, ErrBadThreshold) {
				t.Errorf("%+v: Valid = %v, want ErrBadThreshold", pst, err)
			}
			if ivs, err := curve.SecurityRange(pst, 0); !errors.Is(err, ErrBadThreshold) {
				t.Errorf("%+v: SecurityRange = %v, %v, want ErrBadThreshold", pst, ivs, err)
			}
		}
	}
}

func TestSecurityRangeDefaultsGrid(t *testing.T) {
	curve := &VarianceCurve{VarX: 1, VarY: 1, Cov: 0}
	ivs, err := curve.SecurityRange(PST{Rho1: 0.5, Rho2: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Uncorrelated unit-variance pair: Var(X-X') = Var(Y-Y') = 2(1-cosθ),
	// ≥ 0.5 iff cosθ ≤ 0.75, i.e. θ ∈ [41.41°, 318.59°].
	if len(ivs) != 1 {
		t.Fatalf("ivs = %v", ivs)
	}
	if math.Abs(ivs[0].Lo-41.4096) > 0.01 || math.Abs(ivs[0].Hi-318.5904) > 0.01 {
		t.Fatalf("analytic check failed: %v", ivs[0])
	}
}

// Property (Theorem 2): RBT is an isometry — the dissimilarity matrix of
// D' equals that of D for random data, pairs and thresholds.
func TestQuickTransformIsometry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(20)
		n := 2 + rng.Intn(6)
		data := matrix.RandomDense(m, n, rng)
		res, err := Transform(data, Options{
			Pairs:      RandomPairs(n, rng),
			Thresholds: []PST{{Rho1: 1e-6, Rho2: 1e-6}},
			Rand:       rng,
		})
		if err != nil {
			return false
		}
		before := dist.NewDissimMatrix(data, dist.Euclidean{})
		after := dist.NewDissimMatrix(res.DPrime, dist.Euclidean{})
		return before.EqualApprox(after, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every reported pair meets its PST (Definition 2's second
// condition holds for the angles the algorithm picks).
func TestQuickTransformMeetsPST(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := matrix.RandomDense(10+rng.Intn(30), 4, rng)
		pst := PST{Rho1: 0.05 + rng.Float64()*0.3, Rho2: 0.05 + rng.Float64()*0.3}
		res, err := Transform(data, Options{Thresholds: []PST{pst}, Rand: rng})
		if err != nil {
			// Thresholds can legitimately be unsatisfiable for low-variance
			// random columns; that is a correct refusal, not a failure.
			return errors.Is(err, ErrEmptySecurityRange)
		}
		for _, r := range res.Reports {
			if r.VarI < r.PST.Rho1-1e-9 || r.VarJ < r.PST.Rho2-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
