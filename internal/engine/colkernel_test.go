package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ppclust/internal/core"
	"ppclust/internal/matrix"
	"ppclust/internal/norm"
	"ppclust/internal/stats"
)

// oracleNormalize is the reference Step 1 for an oracle comparison:
// internal/norm's fit-and-apply for zscore and minmax, the input itself for
// NormNone.
func oracleNormalize(t *testing.T, data *matrix.Dense, method string) *matrix.Dense {
	t.Helper()
	var n norm.Normalizer
	switch method {
	case NormZScore:
		n = &norm.ZScore{Denominator: stats.Sample}
	case NormMinMax:
		n = &norm.MinMax{}
	default:
		return data
	}
	out, err := norm.FitTransform(n, data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// engineNormalized applies a result's own fitted Step 1 parameters to
// data: the input the kernel actually rotated.
func engineNormalized(data *matrix.Dense, res *ProtectResult) *matrix.Dense {
	out := data.Clone()
	s := res.Secret()
	for r := 0; r < out.Rows(); r++ {
		s.NormalizeRow(out.RawRow(r))
	}
	return out
}

// TestColumnarMatchesRows locks the kernel to the row-major reference,
// core.Transform, for every normalization, for even (disjoint round-robin
// schedule, fused sums) and odd (overlapping schedule, per-pair sums)
// column counts, and for any worker count:
//
//   - with one row block the blocked reductions run in core's serial
//     order, so release and key equal core.Transform of the
//     internal/norm-normalized input bit for bit;
//   - with the default block size (three blocks here) the rotation is
//     still core's bit for bit given the engine's normalization and
//     angles, and the angles stay within 1e-9° of core's own draw.
func TestColumnarMatchesRows(t *testing.T) {
	const m = 20011
	pst := []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}
	for _, n := range []int{4, 7, 16} {
		data := randData(m, n, int64(100+n))
		for _, method := range []string{NormZScore, NormMinMax, NormNone} {
			want, err := core.Transform(oracleNormalize(t, data, method), core.Options{
				Thresholds: pst,
				Rand:       rand.New(rand.NewSource(4242)),
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := ProtectOptions{Normalization: method, Thresholds: pst, Seed: 4242}
			for _, w := range []int{1, 2, 3, 8} {
				name := fmt.Sprintf("n=%d %s w=%d", n, method, w)
				one, err := New(w, m).Protect(data, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(one.Released.Raw(), want.DPrime.Raw()) || !bitsEqual(one.Key.AnglesDeg, want.Key.AnglesDeg) {
					t.Fatalf("%s, one block: release or key differs from core.Transform", name)
				}

				blocked, err := New(w, 0).Protect(data, opts)
				if err != nil {
					t.Fatal(err)
				}
				rot, err := core.Transform(engineNormalized(data, blocked), core.Options{
					Thresholds:  pst,
					FixedAngles: blocked.Key.AnglesDeg,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(blocked.Released.Raw(), rot.DPrime.Raw()) {
					t.Fatalf("%s, default blocks: release differs from core's rotation by the same angles", name)
				}
				for k, a := range blocked.Key.AnglesDeg {
					if math.Abs(a-want.Key.AnglesDeg[k]) > 1e-9 {
						t.Fatalf("%s, default blocks: angle %d = %v, core drew %v", name, k, a, want.Key.AnglesDeg[k])
					}
				}
			}
		}
	}
}

// TestColumnarFixedAngles covers the fixed-angle branch (no RNG use) and
// an explicit overlapping pair schedule against core.Transform.
func TestColumnarFixedAngles(t *testing.T) {
	data := randData(5003, 4, 9)
	opts := ProtectOptions{
		Normalization: NormZScore,
		Pairs:         []core.Pair{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}},
		Thresholds:    []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
		FixedAngles:   []float64{33, 120, 261},
	}
	got, err := New(4, 0).Protect(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Transform(oracleNormalize(t, data, NormZScore), core.Options{
		Pairs:       opts.Pairs,
		Thresholds:  opts.Thresholds,
		FixedAngles: opts.FixedAngles,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Released.Raw(), want.DPrime.Raw()) {
		t.Fatal("fixed-angle release differs from core.Transform")
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
// arena-free Protect for every normalization, over several row blocks and
// workers, with an even (fused sums) and an odd (overlapping schedule)
// column count.
func TestReleaseIntoOwnInput(t *testing.T) {
	for _, n := range []int{6, 7} {
		data := randData(3001, n, int64(50+n))
		for _, method := range []string{NormZScore, NormMinMax, NormNone} {
			e := New(3, 512)
			opts := ProtectOptions{
				Normalization: method,
				Thresholds:    []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
				Seed:          77,
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
			name := fmt.Sprintf("n=%d %s", n, method)
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

// TestColumnarNaNRejected: under NormNone the finiteness check happens
// inside the gather.
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

// TestColumnarSharedRand runs two protects off one shared *rand.Rand, and
// core.Transform twice off another seeded alike, to prove the kernel
// consumes the stream exactly as core does (a different draw count would
// desynchronize the second call).
func TestColumnarSharedRand(t *testing.T) {
	data := randData(4096, 6, 77)
	pst := []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}
	e := New(3, 0)
	opts := ProtectOptions{Thresholds: pst, Rand: rand.New(rand.NewSource(5))}
	normed := oracleNormalize(t, data, NormZScore)
	ref := core.Options{Thresholds: pst, Rand: rand.New(rand.NewSource(5))}
	for call := 1; call <= 2; call++ {
		got, err := e.Protect(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Transform(normed, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got.Released.Raw(), want.DPrime.Raw()) {
			t.Fatalf("call %d: shared-rand release diverges from core.Transform", call)
		}
	}
}
