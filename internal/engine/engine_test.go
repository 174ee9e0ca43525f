package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ppclust/internal/core"
	"ppclust/internal/dist"
	"ppclust/internal/matrix"
	"ppclust/internal/norm"
	"ppclust/internal/stats"
)

func randData(m, n int, seed int64) *matrix.Dense {
	return matrix.RandomDense(m, n, rand.New(rand.NewSource(seed)))
}

func tinyPST() []core.PST { return []core.PST{{Rho1: 1e-6, Rho2: 1e-6}} }

// TestParallelSerialBitIdentical is the acceptance property of the engine:
// the released matrix, key angles and reports must be byte-identical for
// every worker count, including the degenerate serial one.
func TestParallelSerialBitIdentical(t *testing.T) {
	data := randData(20000, 7, 1)
	opts := ProtectOptions{Thresholds: tinyPST(), Seed: 42}
	ref, err := New(1, 4096).Protect(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got, err := New(w, 4096).Protect(data, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !matrix.Equal(ref.Released, got.Released) {
			t.Fatalf("workers=%d: released matrix differs from serial", w)
		}
		for k := range ref.Key.AnglesDeg {
			if ref.Key.AnglesDeg[k] != got.Key.AnglesDeg[k] {
				t.Fatalf("workers=%d: angle %d differs: %v vs %v", w, k, ref.Key.AnglesDeg[k], got.Key.AnglesDeg[k])
			}
		}
		for j := range ref.ParamsA {
			if ref.ParamsA[j] != got.ParamsA[j] || ref.ParamsB[j] != got.ParamsB[j] {
				t.Fatalf("workers=%d: normalization params differ at column %d", w, j)
			}
		}
	}
}

// TestMatchesCoreFixedAngles: with fixed angles and pre-normalized input
// the engine performs the exact per-row arithmetic of core.Transform, so
// the release must be bit-identical to the serial reference implementation.
func TestMatchesCoreFixedAngles(t *testing.T) {
	data := randData(5000, 6, 2)
	angles := []float64{312.47, 147.29, 200.0}
	eng := New(4, 1024)
	got, err := eng.Protect(data, ProtectOptions{
		Normalization: NormNone,
		Thresholds:    tinyPST(),
		FixedAngles:   angles,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Transform(data, core.Options{
		Thresholds:  tinyPST(),
		FixedAngles: angles,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got.Released, want.DPrime) {
		t.Fatal("engine release differs from core.Transform with identical fixed angles")
	}
}

// TestMatchesCoreRandomAngles: with random angles the engine's blocked
// statistics can differ from core's serial statistics in the last bits, so
// the drawn angles (and release) agree only approximately — but tightly.
func TestMatchesCoreRandomAngles(t *testing.T) {
	data := randData(3000, 4, 3)
	eng := New(4, 512)
	got, err := eng.Protect(data, ProtectOptions{Normalization: NormNone, Thresholds: tinyPST(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Transform(data, core.Options{
		Thresholds: tinyPST(),
		Rand:       rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Key.AnglesDeg {
		if math.Abs(got.Key.AnglesDeg[k]-want.Key.AnglesDeg[k]) > 1e-6 {
			t.Fatalf("angle %d drifted: engine %v vs core %v", k, got.Key.AnglesDeg[k], want.Key.AnglesDeg[k])
		}
	}
	if !matrix.EqualApprox(got.Released, want.DPrime, 1e-6) {
		t.Fatal("engine release drifted from core.Transform beyond tolerance")
	}
}

// TestZScorePipelineMatchesNorm compares the z-score parameters Protect
// fits with blocked reductions against the reference internal/norm
// implementation.
func TestZScorePipelineMatchesNorm(t *testing.T) {
	data := randData(4000, 5, 4)
	res, err := New(4, 777).Protect(data, ProtectOptions{Thresholds: tinyPST(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	z := &norm.ZScore{Denominator: stats.Sample}
	if err := z.Fit(data); err != nil {
		t.Fatal(err)
	}
	means, stds := z.Params()
	for j := range means {
		if math.Abs(res.ParamsA[j]-means[j]) > 1e-12 || math.Abs(res.ParamsB[j]-stds[j]) > 1e-12 {
			t.Fatalf("column %d params drifted", j)
		}
	}
}

// TestProtectRecoverRoundTrip covers zscore and minmax end to end.
func TestProtectRecoverRoundTrip(t *testing.T) {
	for _, method := range []string{NormZScore, NormMinMax, NormNone} {
		t.Run(method, func(t *testing.T) {
			data := randData(2500, 5, 5)
			eng := New(3, 700)
			res, err := eng.Protect(data, ProtectOptions{Normalization: method, Thresholds: tinyPST(), Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			back, err := eng.Recover(res.Released, res.Secret())
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.EqualApprox(back, data, 1e-9) {
				t.Fatal("recover did not restore the original data")
			}
		})
	}
}

// TestRecoverMatchesCore checks the fused parallel inverse against the
// reference core.Recover on pre-normalized data.
func TestRecoverMatchesCore(t *testing.T) {
	data := randData(3000, 6, 6)
	eng := New(5, 999)
	res, err := eng.Protect(data, ProtectOptions{Normalization: NormNone, Thresholds: tinyPST(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Recover(res.Released, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Recover(res.Released, res.Secret())
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(got, want, 1e-12) {
		t.Fatal("engine.Recover disagrees with core.Recover")
	}
}

// TestIsometryPreserved: the parallel release must preserve pairwise
// Euclidean distances of the normalized data (Theorem 2), exactly like the
// serial path.
func TestIsometryPreserved(t *testing.T) {
	data := randData(400, 6, 8)
	eng := New(4, 64)
	res, err := eng.Protect(data, ProtectOptions{Thresholds: tinyPST(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	z := &norm.ZScore{Denominator: stats.Sample}
	nd, err := norm.FitTransform(z, data)
	if err != nil {
		t.Fatal(err)
	}
	before := dist.NewDissimMatrix(nd, dist.Euclidean{})
	after := dist.NewDissimMatrix(res.Released, dist.Euclidean{})
	if !before.EqualApprox(after, 1e-9) {
		t.Fatal("parallel release does not preserve pairwise distances")
	}
}

// TestProtectValidation exercises the error paths.
func TestProtectValidation(t *testing.T) {
	eng := New(2, 128)
	small := randData(1, 3, 9)
	if _, err := eng.Protect(small, ProtectOptions{Thresholds: tinyPST()}); err == nil {
		t.Fatal("expected error for single-row input")
	}
	data := randData(100, 4, 9)
	if _, err := eng.Protect(data, ProtectOptions{}); !errors.Is(err, core.ErrBadThreshold) {
		t.Fatalf("expected ErrBadThreshold, got %v", err)
	}
	if _, err := eng.Protect(data, ProtectOptions{Normalization: "fourier", Thresholds: tinyPST()}); err == nil {
		t.Fatal("expected error for unknown normalization")
	}
	if _, err := eng.Protect(data, ProtectOptions{Thresholds: tinyPST(), FixedAngles: []float64{1}}); err == nil {
		t.Fatal("expected error for wrong fixed angle count")
	}
	// θ = 0 leaves every attribute where it was: Var(A−A') = 0 < ρ.
	if _, err := eng.Protect(data, ProtectOptions{Thresholds: tinyPST(), FixedAngles: []float64{0, 0}}); !errors.Is(err, core.ErrEmptySecurityRange) {
		t.Fatalf("expected ErrEmptySecurityRange for a PST-violating fixed angle, got %v", err)
	}
	nan := data.Clone()
	nan.SetAt(3, 2, math.NaN())
	if _, err := eng.Protect(nan, ProtectOptions{Thresholds: tinyPST()}); err == nil {
		t.Fatal("expected error for NaN input")
	}
	if _, err := eng.Protect(nan, ProtectOptions{Normalization: NormNone, Thresholds: tinyPST()}); err == nil {
		t.Fatal("expected error for NaN input without normalization")
	}
	// Constant column breaks both normalizations.
	con := data.Clone()
	for i := 0; i < con.Rows(); i++ {
		con.SetAt(i, 1, 5)
	}
	if _, err := eng.Protect(con, ProtectOptions{Thresholds: tinyPST()}); err == nil {
		t.Fatal("expected error for constant column under zscore")
	}
	if _, err := eng.Protect(con, ProtectOptions{Normalization: NormMinMax, Thresholds: tinyPST()}); err == nil {
		t.Fatal("expected error for constant column under minmax")
	}
}

// TestRecoverValidation exercises the secret checks.
func TestRecoverValidation(t *testing.T) {
	eng := New(2, 128)
	data := randData(50, 4, 10)
	res, err := eng.Protect(data, ProtectOptions{Thresholds: tinyPST()})
	if err != nil {
		t.Fatal(err)
	}
	bad := res.Secret()
	bad.Normalization = "fourier"
	if _, err := eng.Recover(res.Released, bad); err == nil {
		t.Fatal("expected error for unknown normalization in secret")
	}
	bad = res.Secret()
	bad.ParamsB[0] = 0
	if _, err := eng.Recover(res.Released, bad); err == nil {
		t.Fatal("expected error for zero std in secret")
	}
	narrow := res.Released.SelectCols([]int{0, 1, 2})
	if _, err := eng.Recover(narrow, res.Secret()); err == nil {
		t.Fatal("expected error for column mismatch")
	}
}

// TestUnseededKeysUnpredictable: without an explicit seed the angle
// randomness comes from crypto/rand, so two fits of the same dataset must
// draw different keys — a fixed default seed would make the key a
// deterministic function of the data, which a known-sample attacker could
// reproduce.
func TestUnseededKeysUnpredictable(t *testing.T) {
	eng := New(2, 128)
	data := randData(300, 4, 21)
	a, err := eng.Protect(data, ProtectOptions{Thresholds: tinyPST()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Protect(data, ProtectOptions{Thresholds: tinyPST()})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := range a.Key.AnglesDeg {
		if a.Key.AnglesDeg[k] != b.Key.AnglesDeg[k] {
			same = false
		}
	}
	if same {
		t.Fatal("two unseeded fits drew identical keys; default seed is predictable")
	}
	// An explicit Rand overrides everything and reproduces exactly.
	c, err := eng.Protect(data, ProtectOptions{Thresholds: tinyPST(), Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Protect(data, ProtectOptions{Thresholds: tinyPST(), Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	for k := range c.Key.AnglesDeg {
		if c.Key.AnglesDeg[k] != d.Key.AnglesDeg[k] {
			t.Fatal("identical Rand sources drew different keys")
		}
	}
}

// TestMinMaxNaNMidBlock: a NaN that is not in a block's first row must
// still be rejected as bad input under minmax normalization — NaN never
// wins a </> comparison, so an unflagged one would silently produce a NaN
// release and surface later as a misleading downstream error.
func TestMinMaxNaNMidBlock(t *testing.T) {
	data := randData(8, 3, 22)
	data.SetAt(2, 1, math.NaN()) // mid-block for blockRows=4
	_, err := New(1, 4).Protect(data, ProtectOptions{Normalization: NormMinMax, Thresholds: tinyPST()})
	if !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("expected ErrBadInput for mid-block NaN, got %v", err)
	}
	inf := randData(8, 3, 23)
	inf.SetAt(5, 0, math.Inf(1))
	if _, err := New(1, 4).Protect(inf, ProtectOptions{Normalization: NormMinMax, Thresholds: tinyPST()}); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("expected ErrBadInput for Inf, got %v", err)
	}
}

// TestSecretExplicitColumns: Protect records the column count in the
// secret, and a hand-built NormNone secret can declare more columns than
// its pairs touch — the untouched trailing columns pass through rotation
// unchanged but are still part of the release.
func TestSecretExplicitColumns(t *testing.T) {
	eng := New(2, 64)
	data := randData(100, 5, 24)
	res, err := eng.Protect(data, ProtectOptions{Thresholds: tinyPST()})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Secret().Columns; got != 5 {
		t.Fatalf("Protect recorded %d columns, want 5", got)
	}

	s := Secret{
		Key:           core.Key{Pairs: []core.Pair{{I: 0, J: 1}}, AnglesDeg: []float64{30}},
		Normalization: NormNone,
		Columns:       4,
	}
	if got := s.Cols(); got != 4 {
		t.Fatalf("declared Cols() = %d, want 4", got)
	}
	sp, err := eng.NewStreamProtector(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.ProtectBatch(randData(6, 4, 25)); err != nil {
		t.Fatalf("4-column batch rejected by 4-column secret: %v", err)
	}
	if _, err := eng.Recover(randData(6, 4, 26), s); err != nil {
		t.Fatalf("4-column recover rejected by 4-column secret: %v", err)
	}
	// Without the declaration the legacy pair-index inference kicks in.
	s.Columns = 0
	if got := s.Cols(); got != 2 {
		t.Fatalf("inferred Cols() = %d, want 2", got)
	}
	// A declaration inconsistent with the normalization parameters is
	// rejected rather than trusted.
	bad := res.Secret()
	bad.Columns = 3
	if _, err := eng.Recover(res.Released, bad); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("expected ErrBadInput for inconsistent column declaration, got %v", err)
	}
}
