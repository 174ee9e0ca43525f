package engine

import (
	"errors"
	"math"
	"testing"

	"ppclust/internal/core"
	"ppclust/internal/dist"
	"ppclust/internal/matrix"
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
