package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ppclust/internal/core"
	"ppclust/internal/matrix"
)

// protectBoth runs the same options through the row and columnar layouts
// with a fixed seed and returns both results.
func protectBoth(t *testing.T, e *Engine, data *matrix.Dense, opts ProtectOptions) (rows, cols *ProtectResult) {
	t.Helper()
	opts.Layout = LayoutRows
	rows, err := e.Protect(data, opts)
	if err != nil {
		t.Fatalf("rows layout: %v", err)
	}
	opts.Layout = LayoutColumnar
	cols, err = e.Protect(data, opts)
	if err != nil {
		t.Fatalf("columnar layout: %v", err)
	}
	return rows, cols
}

// TestColumnarMatchesRows locks in the tentpole invariant: the float64
// columnar kernel is bit-for-bit identical to the row kernel for every
// normalization, for even (disjoint round-robin schedule, fused sums) and
// odd (overlapping schedule, per-pair sums) column counts, and for any
// worker count.
func TestColumnarMatchesRows(t *testing.T) {
	for _, n := range []int{4, 7, 16} {
		data := randData(20011, n, int64(100+n))
		for _, method := range []string{NormZScore, NormMinMax, NormNone} {
			for _, w := range []int{1, 2, 3, 8} {
				e := New(w, 0)
				opts := ProtectOptions{
					Normalization: method,
					Thresholds:    []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
					Seed:          4242,
				}
				rows, cols := protectBoth(t, e, data, opts)
				if !matrix.Equal(rows.Released, cols.Released) {
					t.Fatalf("n=%d %s w=%d: columnar release differs from row release", n, method, w)
				}
				for k := range rows.Key.AnglesDeg {
					if rows.Key.AnglesDeg[k] != cols.Key.AnglesDeg[k] {
						t.Fatalf("n=%d %s w=%d: angle %d differs: %v vs %v",
							n, method, w, k, rows.Key.AnglesDeg[k], cols.Key.AnglesDeg[k])
					}
				}
				for j := range rows.ParamsA {
					if rows.ParamsA[j] != cols.ParamsA[j] || rows.ParamsB[j] != cols.ParamsB[j] {
						t.Fatalf("n=%d %s w=%d: normalization params differ at column %d", n, method, w, j)
					}
				}
			}
		}
	}
}

// TestColumnarFixedAngles covers the fixed-angle branch (no RNG use) and
// an explicit overlapping pair schedule on the columnar path.
func TestColumnarFixedAngles(t *testing.T) {
	data := randData(5003, 4, 9)
	opts := ProtectOptions{
		Normalization: NormZScore,
		Pairs:         []core.Pair{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}},
		Thresholds:    []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
		FixedAngles:   []float64{33, 120, 261},
	}
	e := New(4, 0)
	rows, cols := protectBoth(t, e, data, opts)
	if !matrix.Equal(rows.Released, cols.Released) {
		t.Fatal("fixed-angle columnar release differs from row release")
	}
}

// TestColumnarArenaReuse verifies a reused Arena yields the same release
// as arena-free calls and that the result aliases arena memory.
func TestColumnarArenaReuse(t *testing.T) {
	data := randData(9001, 6, 21)
	e := New(4, 0)
	opts := ProtectOptions{Thresholds: []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}, Seed: 7}
	want, err := e.Protect(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	ar := &Arena{}
	opts.Arena = ar
	for i := 0; i < 3; i++ {
		got, err := e.Protect(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(want.Released, got.Released) {
			t.Fatalf("arena run %d differs from arena-free release", i)
		}
		if &got.Released.Raw()[0] != &ar.out[0] {
			t.Fatalf("arena run %d: release does not alias the arena", i)
		}
	}
}

// TestReleaseIntoOwnInput: an arena over the input's own buffer releases in
// place, and the release, key and parameters are bit-identical to an
// arena-free Protect for every layout, precision and normalization, over
// several row blocks and workers, with an even (fused sums) and an odd
// (overlapping schedule) column count.
func TestReleaseIntoOwnInput(t *testing.T) {
	kernels := []struct{ layout, precision string }{
		{LayoutRows, PrecisionFloat64},
		{LayoutColumnar, PrecisionFloat64},
		{LayoutColumnar, PrecisionFloat32},
	}
	for _, n := range []int{6, 7} {
		data := randData(3001, n, int64(50+n))
		for _, k := range kernels {
			for _, method := range []string{NormZScore, NormMinMax, NormNone} {
				e := New(3, 512)
				opts := ProtectOptions{
					Normalization: method,
					Thresholds:    []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
					Seed:          77,
					Layout:        k.layout,
					Precision:     k.precision,
				}
				want, err := e.Protect(data, opts)
				if err != nil {
					t.Fatal(err)
				}
				in := data.Clone()
				opts.Arena = ReleaseInto(in.Raw())
				got, err := e.Protect(in, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("n=%d %s/%s %s", n, k.layout, k.precision, method)
				if &got.Released.Raw()[0] != &in.Raw()[0] {
					t.Fatalf("%s: release is not in the input's buffer", name)
				}
				if !bitsEqual(want.Released.Raw(), got.Released.Raw()) || !bitsEqual(want.Key.AnglesDeg, got.Key.AnglesDeg) ||
					!bitsEqual(want.ParamsA, got.ParamsA) || !bitsEqual(want.ParamsB, got.ParamsB) {
					t.Fatalf("%s: in-place protect differs from a fresh release", name)
				}
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestColumnarAllocSteadyState pins the scratch-arena satellite: with a
// caller Arena, steady-state Protect performs only O(1) small allocations
// (result structs, reports, fitted params) and allocates no memory
// proportional to the data — the gather buffer and the release are reused.
func TestColumnarAllocSteadyState(t *testing.T) {
	data := randData(40000, 8, 33)
	e := New(1, 0) // single worker: forBlocks spawns no goroutines to count
	ar := &Arena{}
	opts := ProtectOptions{
		Thresholds: []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
		Seed:       11,
		Arena:      ar,
	}
	if _, err := e.Protect(data, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.Protect(data, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("steady-state protect made %.0f allocations, want <= 64", allocs)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const iters = 5
	for i := 0; i < iters; i++ {
		if _, err := e.Protect(data, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / iters
	// Data is 40000×8×8B = 2.4 MiB; without reuse each call would allocate
	// ≥ 5 MiB (release + gather buffer). 256 KiB leaves room for the O(1)
	// result machinery while proving the big buffers are reused.
	if perOp > 256<<10 {
		t.Fatalf("steady-state protect allocated %d bytes/op, want <= 256KiB", perOp)
	}
}

// TestFloat32RecoverError measures the float32 kernel's approximation: the
// release must recover the original to within a small relative error (the
// documented bound), and the float64 path must stay bit-exact.
func TestFloat32RecoverError(t *testing.T) {
	data := randData(20000, 8, 55)
	e := New(4, 0)
	opts := ProtectOptions{
		Thresholds: []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
		Seed:       99,
		Precision:  PrecisionFloat32,
	}
	res, err := e.Protect(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e.Recover(res.Released, res.Secret())
	if err != nil {
		t.Fatal(err)
	}
	// Scale-relative bound: normalized values are O(1) with float32
	// rounding ~6e-8 amplified through one rotation and the denormalize
	// multiply; 1e-4 relative to the column scale is comfortably above
	// the measured ~1e-6 worst case and far below any analytic use.
	var worst float64
	for j := 0; j < data.Cols(); j++ {
		scale := res.ParamsB[j]
		for i := 0; i < data.Rows(); i++ {
			relErr := math.Abs(rec.At(i, j)-data.At(i, j)) / scale
			if relErr > worst {
				worst = relErr
			}
		}
	}
	t.Logf("float32 recover: worst scale-relative error %.3g", worst)
	if worst > 1e-4 {
		t.Fatalf("float32 recover error %.3g exceeds documented 1e-4 bound", worst)
	}
	// float64 mode stays bit-exact on the same inputs modulo denormalize
	// rounding (the pre-existing round-trip tolerance).
	opts.Precision = PrecisionFloat64
	res64, err := e.Protect(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec64, err := e.Recover(res64.Released, res64.Secret())
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(rec64, data, 1e-9) {
		t.Fatal("float64 columnar round trip drifted")
	}
}

// TestFloat32StillPSTChecked makes sure the approximate kernel still
// enforces variance thresholds against the float32 curve.
func TestFloat32StillPSTChecked(t *testing.T) {
	data := randData(512, 4, 3)
	_, err := New(2, 0).Protect(data, ProtectOptions{
		Thresholds:  []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
		FixedAngles: []float64{0, 0}, // θ=0 preserves variances: PST violated
		Precision:   PrecisionFloat32,
	})
	if err == nil {
		t.Fatal("float32 kernel accepted a PST-violating fixed angle")
	}
}

// TestLayoutValidation rejects unknown layout/precision combinations.
func TestLayoutValidation(t *testing.T) {
	data := randData(64, 4, 1)
	base := ProtectOptions{Thresholds: []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}, Seed: 1}
	bad := []ProtectOptions{
		{Layout: "diagonal"},
		{Precision: "float16"},
		{Layout: LayoutRows, Precision: PrecisionFloat32},
	}
	for i, o := range bad {
		o.Thresholds, o.Seed = base.Thresholds, base.Seed
		if _, err := New(1, 0).Protect(data, o); err == nil {
			t.Fatalf("case %d: bad layout/precision accepted", i)
		}
	}
}

// TestColumnarNaNRejected mirrors the row path's NaN handling for
// NormNone, where the check happens inside the gather.
func TestColumnarNaNRejected(t *testing.T) {
	data := randData(1000, 4, 2)
	data.SetAt(517, 2, math.NaN())
	_, err := New(4, 0).Protect(data, ProtectOptions{
		Normalization: NormNone,
		Thresholds:    []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
		Seed:          3,
	})
	if err == nil {
		t.Fatal("columnar NormNone accepted NaN input")
	}
}

// TestColumnarSharedRand runs both layouts off one shared *rand.Rand to
// prove they consume the stream identically (interleaving two sequences
// would desynchronize the second call).
func TestColumnarSharedRand(t *testing.T) {
	data := randData(4096, 6, 77)
	e := New(3, 0)
	opts := ProtectOptions{Thresholds: []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}}

	opts.Rand = rand.New(rand.NewSource(5))
	opts.Layout = LayoutRows
	a1, err := e.Protect(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Protect(data, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Rand = rand.New(rand.NewSource(5))
	opts.Layout = LayoutColumnar
	b1, err := e.Protect(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := e.Protect(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(a1.Released, b1.Released) || !matrix.Equal(a2.Released, b2.Released) {
		t.Fatal("shared-rand sequences diverge between layouts")
	}
}
