package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestFitMatchesCore locks the kernel to the reference, core.Transform,
// for every normalization, for even (one layer) and odd (two layers, the
// second re-summing a column the first rotated) column counts, and for
// any worker count:
//
//   - with one row block the blocked reductions run in core's serial
//     order, so release and key equal core.Transform of the
//     internal/norm-normalized input bit for bit;
//   - with the default block size (three blocks here) the rotation is
//     still core's bit for bit given the engine's normalization and
//     angles, and the angles stay within 1e-9° of core's own draw.
func TestFitMatchesCore(t *testing.T) {
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

// TestFitFixedAngles covers the fixed-angle branch (no RNG use) and
// an explicit overlapping pair schedule against core.Transform.
func TestFitFixedAngles(t *testing.T) {
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

// TestFitArenaReuse verifies a reused Arena yields the same release
// as arena-free calls and that the result aliases arena memory.
func TestFitArenaReuse(t *testing.T) {
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
// workers, with an even (one layer) and an odd (two layers) column count.
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

// TestFitAllocSteadyState: with a caller Arena, steady-state Protect
// performs only O(1) small allocations (result structs, reports, fitted
// params) and allocates no memory proportional to the data — the release
// is reused.
func TestFitAllocSteadyState(t *testing.T) {
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
	// ≥ 2.4 MiB for the release. 256 KiB leaves room for the O(1) result
	// machinery while proving the release buffer is reused.
	if perOp > 256<<10 {
		t.Fatalf("steady-state protect allocated %d bytes/op, want <= 256KiB", perOp)
	}
}

// TestFitNaNRejected: under NormNone a non-finite input value is caught
// by its column's sum, before any angle is drawn.
func TestFitNaNRejected(t *testing.T) {
	data := randData(1000, 4, 2)
	data.SetAt(517, 2, math.NaN())
	_, err := New(4, 0).Protect(data, ProtectOptions{
		Normalization: NormNone,
		Thresholds:    []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
		Seed:          3,
	})
	if err == nil {
		t.Fatal("NormNone accepted NaN input")
	}
}

// TestFitSharedRand runs two protects off one shared *rand.Rand, and
// core.Transform twice off another seeded alike, to prove the kernel
// consumes the stream exactly as core does (a different draw count would
// desynchronize the second call).
func TestFitSharedRand(t *testing.T) {
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

// overlappingPairs draws random ordered pairs until every column is in
// one, so columns recur, consecutive pairs often share one, and the
// layers come in every size.
func overlappingPairs(n int, rng *rand.Rand) []core.Pair {
	var pairs []core.Pair
	covered, left := make([]bool, n), n
	for left > 0 {
		i := rng.Intn(n)
		j := (i + 1 + rng.Intn(n-1)) % n
		pairs = append(pairs, core.Pair{I: i, J: j})
		for _, c := range []int{i, j} {
			if !covered[c] {
				covered[c] = true
				left--
			}
		}
	}
	return pairs
}

// TestFitDifferential checks a few hundred drawn fits against
// core.Transform: m in [2, 300], n in [2, 12], a round-robin, random or
// overlapping pair schedule, each normalization, 1–4 workers.
//
//   - With one row block the release, angles and reports equal core's fit
//     of the internal/norm-normalized input bit for bit.
//   - With blocks of 1 to m/2 rows the release equals core's rotation of
//     the engine-normalized input by the engine's angles bit for bit.
func TestFitDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pst := []core.PST{{Rho1: 1e-9, Rho2: 1e-9}}
	methods := []string{NormZScore, NormMinMax, NormNone}
	for c := 0; c < 300; c++ {
		m, n := 2+rng.Intn(299), 2+rng.Intn(11)
		data := randData(m, n, rng.Int63())
		schedule := rng.Intn(3)
		var pairs []core.Pair
		switch schedule {
		case 0:
			pairs = core.RoundRobinPairs(n)
		case 1:
			pairs = core.RandomPairs(n, rng)
		default:
			pairs = overlappingPairs(n, rng)
		}
		method, w, seed := methods[rng.Intn(len(methods))], 1+rng.Intn(4), rng.Int63()
		rows := 1 + rng.Intn(max(1, m/2))
		name := fmt.Sprintf("case %d (%d×%d, %s, pairs %v, %d workers)", c, m, n, method, pairs, w)
		opts := ProtectOptions{Normalization: method, Pairs: pairs, Thresholds: pst, Seed: seed}

		one, err := New(w, m).Protect(data, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := core.Transform(oracleNormalize(t, data, method), core.Options{
			Pairs: pairs, Thresholds: pst, Rand: rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			t.Fatalf("%s: core: %v", name, err)
		}
		if !bitsEqual(one.Released.Raw(), want.DPrime.Raw()) || !bitsEqual(one.Key.AnglesDeg, want.Key.AnglesDeg) ||
			!reflect.DeepEqual(one.Reports, want.Reports) {
			t.Fatalf("%s, one block: release, angles or reports differ from core.Transform", name)
		}

		blocked, err := New(w, rows).Protect(data, opts)
		if err != nil {
			t.Fatalf("%s, %d-row blocks: %v", name, rows, err)
		}
		rot, err := core.Transform(engineNormalized(data, blocked), core.Options{
			Pairs: pairs, Thresholds: pst, FixedAngles: blocked.Key.AnglesDeg,
		})
		if err != nil {
			t.Fatalf("%s, %d-row blocks: core: %v", name, rows, err)
		}
		if !bitsEqual(blocked.Released.Raw(), rot.DPrime.Raw()) {
			t.Fatalf("%s, %d-row blocks: release differs from core's rotation by the same angles", name, rows)
		}
	}
}

// TestFitRefusesOverflow: a fit whose statistics or rotations overflow
// float64 is refused as bad input rather than releasing NaN or ±Inf or
// returning parameters no recover can invert: a zscore std or a minmax
// range past float64's range, and NormNone input that rotates past it.
// Secrets carrying such parameters are refused too.
func TestFitRefusesOverflow(t *testing.T) {
	pst := []core.PST{{Rho1: 0.3, Rho2: 0.3}}
	cases := []struct {
		method string
		rows   [][]float64
	}{
		{NormZScore, [][]float64{{1.7e308, 1}, {-1.7e308, 2}, {1.7e308, 3}, {-1.7e308, 5}}},
		{NormMinMax, [][]float64{{1e308, 1}, {-1e308, 2}, {0, 3}, {5e307, 5}}},
		// The sums stay finite; at seed 1 the angle is 217.7°, which takes
		// the first row's 1.7e308·(cos θ + sin θ) past float64's range.
		{NormNone, [][]float64{{1.7e308, 1.7e308}, {-1.7e308, -1.7e308}, {1e308, -1e308}, {-1e308, 1e308}}},
	}
	for _, tc := range cases {
		for _, blockRows := range []int{0, 2} {
			data := matrix.FromRows(tc.rows)
			res, err := New(2, blockRows).Protect(data, ProtectOptions{Normalization: tc.method, Thresholds: pst, Seed: 1})
			if !errors.Is(err, core.ErrBadInput) {
				t.Fatalf("%s, block rows %d: err = %v, want ErrBadInput", tc.method, blockRows, err)
			}
			if res != nil {
				t.Fatalf("%s, block rows %d: a refused fit returned a result", tc.method, blockRows)
			}
		}
	}

	key := core.Key{Pairs: []core.Pair{{I: 0, J: 1}}, AnglesDeg: []float64{30}}
	for i, s := range []Secret{
		{Key: key, Normalization: NormZScore, ParamsA: []float64{0, 0}, ParamsB: []float64{math.Inf(1), 1}},
		{Key: key, Normalization: NormZScore, ParamsA: []float64{math.NaN(), 0}, ParamsB: []float64{1, 1}},
		{Key: key, Normalization: NormMinMax, ParamsA: []float64{-1e308, 0}, ParamsB: []float64{1e308, 1}},
	} {
		if _, err := New(1, 0).NewStreamProtector(s); !errors.Is(err, core.ErrBadInput) {
			t.Fatalf("secret %d: stream protector err = %v, want ErrBadInput", i, err)
		}
		if _, err := New(1, 0).Recover(randData(3, 2, 1), s); !errors.Is(err, core.ErrBadInput) {
			t.Fatalf("secret %d: recover err = %v, want ErrBadInput", i, err)
		}
	}
}

// TestFitRefusesNonFiniteMoments: a NormNone fit whose pair moments
// overflow float64 while its release stays finite is refused as bad
// input, instead of reporting the whole circle as the security range
// with infinite or NaN variances.
func TestFitRefusesNonFiniteMoments(t *testing.T) {
	pst := []core.PST{{Rho1: 0.3, Rho2: 0.3}}
	cases := []struct {
		rows [][]float64
		seed int64
	}{
		{[][]float64{{1e200, 3}, {-1e200, 1}, {5e199, 2}, {-5e199, 7}}, 1},
		// At seed 4 the angle keeps this release finite; its moments are NaN.
		{[][]float64{{1.7e308, 1.7e308}, {-1.7e308, -1.7e308}, {1e308, -1e308}, {-1e308, 1e308}}, 4},
	}
	for i, tc := range cases {
		for _, blockRows := range []int{0, 2} {
			res, err := New(2, blockRows).Protect(matrix.FromRows(tc.rows), ProtectOptions{Normalization: NormNone, Thresholds: pst, Seed: tc.seed})
			if !errors.Is(err, core.ErrBadInput) || res != nil {
				t.Fatalf("case %d, block rows %d: err = %v (result returned: %v), want ErrBadInput and no result", i, blockRows, err, res != nil)
			}
		}
	}
}

// TestFitInPlaceAllocations: a 2 000×32 fit released into its own input
// through ReleaseInto, as the daemon serves one, allocates nothing the
// size of its 500 KiB of data: at most 64 KiB per call.
func TestFitInPlaceAllocations(t *testing.T) {
	src := randData(2000, 32, 12)
	in := src.Clone()
	e := New(2, 0)
	opts := ProtectOptions{Thresholds: tinyPST(), Seed: 12}
	fit := func() {
		copy(in.Raw(), src.Raw())
		opts.Arena = ReleaseInto(in.Raw())
		res, err := e.Protect(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if &res.Released.Raw()[0] != &in.Raw()[0] {
			t.Fatal("release is not in the input's buffer")
		}
	}
	fit()
	const calls = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range calls {
		fit()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B allocated per in-place fit", perCall)
	if perCall > 64<<10 {
		t.Fatalf("an in-place fit allocated %d B, want <= 64 KiB", perCall)
	}
}

// BenchmarkEngineFitInPlace measures a served fit's engine work: a
// 2 000×32 zscore fit, one row block, released into its own input
// through a fresh ReleaseInto arena per call, as the daemon makes one per
// request. Each iteration fits the previous iteration's release.
func BenchmarkEngineFitInPlace(b *testing.B) {
	data := randData(2000, 32, 12)
	e := New(0, 0)
	opts := ProtectOptions{Thresholds: tinyPST(), Seed: 12}
	b.ReportAllocs()
	for b.Loop() {
		opts.Arena = ReleaseInto(data.Raw())
		if _, err := e.Protect(data, opts); err != nil {
			b.Fatal(err)
		}
	}
}
