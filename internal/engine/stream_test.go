package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ppclust/internal/core"
	"ppclust/internal/dist"
	"ppclust/internal/matrix"
	"ppclust/internal/rotate"
)

// inPlace runs fn over a copy of batch and returns the copy: the in-place
// counterpart of ProtectBatch/RecoverBatch.
func inPlace(t *testing.T, fn func(*matrix.Dense) error, batch *matrix.Dense) *matrix.Dense {
	t.Helper()
	out := batch.Clone()
	if err := fn(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamBatchRoundTrip: protect a batch under a frozen transform, then
// recover it; the original rows must come back. ProtectInPlace and
// RecoverInPlace produce bit for bit what the copying calls do.
func TestStreamBatchRoundTrip(t *testing.T) {
	eng := New(4, 256)
	seed := randData(1000, 6, 20)
	res, err := eng.Protect(seed, ProtectOptions{Thresholds: tinyPST(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := eng.NewStreamProtector(res.Secret())
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{1, 7, 300} {
		batch := randData(rows, 6, int64(100+rows))
		rel, err := sp.ProtectBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		back, err := sp.RecoverBatch(rel)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.EqualApprox(back, batch, 1e-9) {
			t.Fatalf("%d-row batch did not round-trip", rows)
		}
		if !matrix.Equal(inPlace(t, sp.ProtectInPlace, batch), rel) {
			t.Fatalf("%d-row batch: ProtectInPlace differs from ProtectBatch", rows)
		}
		if !matrix.Equal(inPlace(t, sp.RecoverInPlace, rel), back) {
			t.Fatalf("%d-row batch: RecoverInPlace differs from RecoverBatch", rows)
		}
	}
}

// TestStreamMatchesProtect: rows pushed through a StreamProtector must land
// exactly where Protect would have put them — the seed data re-protected
// batchwise reproduces the seed release bit-for-bit.
func TestStreamMatchesProtect(t *testing.T) {
	eng := New(3, 128)
	seed := randData(900, 4, 21)
	res, err := eng.Protect(seed, ProtectOptions{Thresholds: tinyPST(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := eng.NewStreamProtector(res.Secret())
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 900; lo += 250 {
		hi := min(lo+250, 900)
		rel, err := sp.ProtectBatch(seed.SubMatrix(lo, hi, 0, 4))
		if err != nil {
			t.Fatal(err)
		}
		want := res.Released.SubMatrix(lo, hi, 0, 4)
		if !matrix.EqualApprox(rel, want, 1e-12) {
			t.Fatalf("batch [%d,%d) differs from the one-shot release", lo, hi)
		}
	}
}

// TestStreamCrossBatchIsometry: distances between rows protected in
// *different* batches equal the distances of their normalized originals,
// because every batch shares one frozen orthogonal map.
func TestStreamCrossBatchIsometry(t *testing.T) {
	eng := New(4, 64)
	seed := randData(500, 5, 22)
	res, err := eng.Protect(seed, ProtectOptions{Thresholds: tinyPST(), Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := eng.NewStreamProtector(res.Secret())
	if err != nil {
		t.Fatal(err)
	}
	a := randData(40, 5, 23)
	b := randData(40, 5, 24)
	relA, err := sp.ProtectBatch(a)
	if err != nil {
		t.Fatal(err)
	}
	relB, err := sp.ProtectBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize the raw batches with the frozen params for the reference.
	sec := sp.Secret()
	normConcat := func(x, y *matrix.Dense) *matrix.Dense {
		joined, err := matrix.AppendRows(x, y)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < joined.Rows(); i++ {
			normalizeRow(joined.RawRow(i), sec)
		}
		return joined
	}
	before := dist.NewDissimMatrix(normConcat(a, b), dist.Euclidean{})
	joinedRel, err := matrix.AppendRows(relA, relB)
	if err != nil {
		t.Fatal(err)
	}
	after := dist.NewDissimMatrix(joinedRel, dist.Euclidean{})
	if !before.EqualApprox(after, 1e-9) {
		t.Fatal("cross-batch distances not preserved")
	}
}

// TestStreamWorkerInvariance: batch releases are bit-identical for any
// worker count, in place or into fresh memory.
func TestStreamWorkerInvariance(t *testing.T) {
	seed := randData(600, 6, 25)
	res, err := New(1, 100).Protect(seed, ProtectOptions{Thresholds: tinyPST(), Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	batch := randData(999, 6, 26)
	var ref *matrix.Dense
	for _, w := range []int{1, 4, 9} {
		sp, err := New(w, 100).NewStreamProtector(res.Secret())
		if err != nil {
			t.Fatal(err)
		}
		rel, err := sp.ProtectBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = rel
		} else if !matrix.Equal(ref, rel) {
			t.Fatalf("workers=%d: stream release differs", w)
		}
		if !matrix.Equal(inPlace(t, sp.ProtectInPlace, batch), ref) {
			t.Fatalf("workers=%d: in-place stream release differs", w)
		}
	}
}

// TestStreamValidation exercises the error paths.
func TestStreamValidation(t *testing.T) {
	eng := New(2, 64)
	seed := randData(200, 4, 27)
	res, err := eng.Protect(seed, ProtectOptions{Thresholds: tinyPST()})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := eng.NewStreamProtector(res.Secret())
	if err != nil {
		t.Fatal(err)
	}
	if sp.Cols() != 4 {
		t.Fatalf("Cols() = %d, want 4", sp.Cols())
	}
	if _, err := sp.ProtectBatch(randData(5, 3, 28)); err == nil {
		t.Fatal("expected error for column mismatch")
	}
	empty := matrix.NewDense(0, 4, nil)
	rel, err := sp.ProtectBatch(empty)
	if err != nil || rel.Rows() != 0 {
		t.Fatalf("empty batch: rel=%v err=%v", rel, err)
	}
	if _, err := sp.RecoverBatch(empty); err != nil {
		t.Fatal(err)
	}
	bad := res.Secret()
	bad.Key.AnglesDeg = bad.Key.AnglesDeg[:1]
	if _, err := eng.NewStreamProtector(bad); err == nil {
		t.Fatal("expected error for malformed key")
	}
	// A secret with an empty normalization defaults to zscore.
	def := res.Secret()
	def.Normalization = ""
	if _, err := eng.NewStreamProtector(def); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRejectsNonFinite: stream batches obey the same contract as the
// fitting path — a release (or recovery) never carries NaN/Inf, the batch
// is rejected instead.
func TestStreamRejectsNonFinite(t *testing.T) {
	eng := New(2, 64)
	seed := randData(200, 4, 29)
	res, err := eng.Protect(seed, ProtectOptions{Thresholds: tinyPST()})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := eng.NewStreamProtector(res.Secret())
	if err != nil {
		t.Fatal(err)
	}
	nan := randData(10, 4, 30)
	nan.SetAt(7, 2, math.NaN())
	if _, err := sp.ProtectBatch(nan); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("ProtectBatch accepted NaN: %v", err)
	}
	if _, err := sp.RecoverBatch(nan); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("RecoverBatch accepted NaN: %v", err)
	}
	inf := randData(10, 4, 31)
	inf.SetAt(0, 0, math.Inf(-1))
	if _, err := sp.ProtectBatch(inf); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("ProtectBatch accepted Inf: %v", err)
	}
	for _, bad := range []*matrix.Dense{nan, inf} {
		if err := sp.ProtectInPlace(bad.Clone()); !errors.Is(err, core.ErrBadInput) {
			t.Fatalf("ProtectInPlace accepted non-finite input: %v", err)
		}
		if err := sp.RecoverInPlace(bad.Clone()); !errors.Is(err, core.ErrBadInput) {
			t.Fatalf("RecoverInPlace accepted non-finite input: %v", err)
		}
	}
}

// streamReference is the row loop StreamProtector ran before its pair
// table, kept as the kernel's oracle: per row, normalizeRow (or, to
// recover, the inverse rotations and then the per-element
// denormalization), with the rotation read from the key's pairs and
// per-pair cos/sin arrays. It skips the non-finite checks, so it applies
// only to batches the kernel accepts.
func streamReference(sec Secret, in *matrix.Dense, recover bool) *matrix.Dense {
	out := in.Clone()
	cths := make([]float64, len(sec.Key.AnglesDeg))
	sths := make([]float64, len(sec.Key.AnglesDeg))
	for k, a := range sec.Key.AnglesDeg {
		rad := rotate.Degrees(a)
		cths[k], sths[k] = math.Cos(rad), math.Sin(rad)
	}
	for r := 0; r < out.Rows(); r++ {
		row := out.RawRow(r)
		if !recover {
			normalizeRow(row, sec)
			for k, p := range sec.Key.Pairs {
				ai, aj := row[p.I], row[p.J]
				row[p.I] = cths[k]*ai + sths[k]*aj
				row[p.J] = -sths[k]*ai + cths[k]*aj
			}
			continue
		}
		for k := len(sec.Key.Pairs) - 1; k >= 0; k-- {
			p := sec.Key.Pairs[k]
			ai, aj := row[p.I], row[p.J]
			row[p.I] = cths[k]*ai - sths[k]*aj
			row[p.J] = sths[k]*ai + cths[k]*aj
		}
		switch sec.Normalization {
		case NormZScore:
			for j, v := range row {
				row[j] = v*sec.ParamsB[j] + sec.ParamsA[j]
			}
		case NormMinMax:
			for j, v := range row {
				row[j] = v*(sec.ParamsB[j]-sec.ParamsA[j]) + sec.ParamsA[j]
			}
		}
	}
	return out
}

// randSecret draws a frozen transform over n columns: parameters of mixed
// magnitudes for method, and an angle per pair of the schedule.
func randSecret(rng *rand.Rand, method string, n int, pairs []core.Pair) Secret {
	sec := Secret{Normalization: method, Columns: n, Key: core.Key{Pairs: pairs, AnglesDeg: make([]float64, len(pairs))}}
	for k := range pairs {
		sec.Key.AnglesDeg[k] = 360 * rng.Float64()
	}
	if method == NormNone {
		return sec
	}
	sec.ParamsA, sec.ParamsB = make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		mag := math.Pow(10, float64(rng.Intn(7)-3))
		sec.ParamsA[j] = rng.NormFloat64() * mag
		sec.ParamsB[j] = mag * (0.5 + rng.Float64())
		if method == NormMinMax {
			sec.ParamsB[j] += sec.ParamsA[j]
		}
	}
	return sec
}

// TestStreamKernelMatchesReference: ProtectInPlace and RecoverInPlace
// equal the reference row loop bit for bit, for z-score, min-max and no
// normalization, 2 to 17 columns, the round-robin schedule and a
// non-disjoint one, batches of 1, 7 and 4 097 rows (five row blocks) and
// 1 or 3 workers.
func TestStreamKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, method := range []string{NormZScore, NormMinMax, NormNone} {
		for n := 2; n <= 17; n++ {
			// A chain around every column, then a chord: each column
			// sits in two or more pairs.
			var chain []core.Pair
			for j := 0; j < n; j++ {
				chain = append(chain, core.Pair{I: j, J: (j + 1) % n})
			}
			chain = append(chain, core.Pair{I: n - 1, J: n / 2})
			if n/2 == n-1 {
				chain[len(chain)-1] = core.Pair{I: n - 1, J: 0}
			}
			for si, pairs := range [][]core.Pair{core.RoundRobinPairs(n), chain} {
				sec := randSecret(rng, method, n, pairs)
				for _, m := range []int{1, 7, 4097} {
					batch := matrix.NewDense(m, n, nil)
					for i := range batch.Raw() {
						batch.Raw()[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
					}
					name := fmt.Sprintf("%s/%d cols/schedule %d/%d rows", method, n, si, m)
					wantRel := streamReference(sec, batch, false)
					wantBack := streamReference(sec, wantRel, true)
					for _, w := range []int{1, 3} {
						sp, err := New(w, 1000).NewStreamProtector(sec)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						rel := inPlace(t, sp.ProtectInPlace, batch)
						if !bitIdentical(rel, wantRel) {
							t.Fatalf("%s, workers %d: ProtectInPlace differs from the reference", name, w)
						}
						if !bitIdentical(inPlace(t, sp.RecoverInPlace, rel), wantBack) {
							t.Fatalf("%s, workers %d: RecoverInPlace differs from the reference", name, w)
						}
					}
				}
			}
		}
	}
}

// bitIdentical reports whether a and b have the same shape and the same
// bits in every cell, so -0 and 0 differ.
func bitIdentical(a, b *matrix.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, v := range a.Raw() {
		if math.Float64bits(v) != math.Float64bits(b.Raw()[i]) {
			return false
		}
	}
	return true
}

// TestStreamRejectsOverflow: a finite row that a frozen transform takes
// past float64's range is rejected, never released (or recovered) as
// ±Inf. Under a z-score key fit on data scaled by 1e-6 (stds near 1e-6),
// 1e305 normalizes to +Inf; under a key with stds of 1e300, a released
// 1e10 denormalizes to ±Inf, through RecoverInPlace and Engine.Recover
// alike.
func TestStreamRejectsOverflow(t *testing.T) {
	eng := New(2, 64)
	seed := randData(200, 4, 32)
	for i := range seed.Raw() {
		seed.Raw()[i] *= 1e-6
	}
	res, err := eng.Protect(seed, ProtectOptions{Thresholds: tinyPST()})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := eng.NewStreamProtector(res.Secret())
	if err != nil {
		t.Fatal(err)
	}
	huge := matrix.NewDense(1, 4, []float64{1e305, 1, 1, 1})
	if rel, err := sp.ProtectBatch(huge); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("ProtectBatch released %v, err %v; want ErrBadInput", rel, err)
	}
	if err := sp.ProtectInPlace(huge.Clone()); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("ProtectInPlace accepted an overflowing row: %v", err)
	}

	wide := Secret{
		Normalization: NormZScore,
		ParamsA:       make([]float64, 4),
		ParamsB:       []float64{1e300, 1e300, 1e300, 1e300},
		Key:           core.Key{Pairs: core.RoundRobinPairs(4), AnglesDeg: []float64{30, 60}},
	}
	sp, err = eng.NewStreamProtector(wide)
	if err != nil {
		t.Fatal(err)
	}
	rel := matrix.NewDense(1, 4, []float64{1e10, 1e10, 1e10, 1e10})
	if err := sp.RecoverInPlace(rel.Clone()); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("RecoverInPlace accepted an overflowing row: %v", err)
	}
	if back, err := eng.Recover(rel, wide); !errors.Is(err, core.ErrBadInput) {
		t.Fatalf("Recover returned %v, err %v; want ErrBadInput", back, err)
	}
}
