package engine

import (
	"fmt"
	"math"
	"sync/atomic"

	"ppclust/internal/core"
	"ppclust/internal/matrix"
	"ppclust/internal/rotate"
)

// StreamProtector protects record batches incrementally under a frozen
// transform: the normalization parameters and rotation key are fixed once
// (by a fitting Protect run, or loaded from a stored Secret) and every
// batch is then mapped through the same normalize+rotate composition in a
// single fused parallel pass. This is what lets ppclustd protect unbounded
// streams without re-reading or re-fitting the full dataset — and it keeps
// the isometry guarantee across batches, because every record ever pushed
// through the same StreamProtector is rotated by the same orthogonal map.
//
// The kernel resolves everything the key fixes at construction: one
// (i, j, cos, sin) entry per pair and the normalization's shift and scale
// per column. It then walks each row of a block as a subslice of the
// batch's one backing slice, with the fit kernel's per-element arithmetic
// ((v-a)/b, (v-a)/(b-a), then c*ai + s*aj and -s*ai + c*aj), so a stream
// release is bit-identical to the fit release of the same rows.
// Finiteness is checked on the values the kernel writes, without a branch
// per value.
//
// Note the privacy caveat inherited from the paper's model: the PST was
// verified on the fitting data. If the stream drifts far from the fitted
// distribution, the achieved variances on later batches may differ from
// the fitted Reports; re-fit (key rotation) is the remedy.
type StreamProtector struct {
	eng  *Engine
	sec  Secret
	cols int
	// A value v normalizes to (v-shift[j])/scale[j] and denormalizes to
	// v*scale[j]+shift[j]; both are nil for NormNone. scale holds the
	// stds (zscore) or the max-min ranges (minmax): a range computed once
	// has the bits the per-element b-a has.
	shift, scale []float64
	// rots is the key's rotation table, in application order.
	rots []pairRot
}

// pairRot is one pair rotation: columns i and j, cos θ and sin θ.
type pairRot struct {
	i, j int
	c, s float64
}

// NewStreamProtector builds a stream protector from a frozen secret. The
// secret must carry normalization parameters (or NormNone) and a valid key.
func (e *Engine) NewStreamProtector(s Secret) (*StreamProtector, error) {
	if s.Normalization == "" {
		s.Normalization = NormZScore
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return e.newStreamProtector(s), nil
}

// newStreamProtector builds the kernel's tables for a validated secret.
func (e *Engine) newStreamProtector(s Secret) *StreamProtector {
	sp := &StreamProtector{eng: e, sec: s, cols: s.Cols(), rots: make([]pairRot, len(s.Key.Pairs))}
	sp.shift, sp.scale = shiftScale(s.Normalization, s.ParamsA, s.ParamsB)
	for k, p := range s.Key.Pairs {
		rad := rotate.Degrees(s.Key.AnglesDeg[k])
		sp.rots[k] = pairRot{i: p.I, j: p.J, c: math.Cos(rad), s: math.Sin(rad)}
	}
	return sp
}

// Secret returns a copy of the frozen inversion state.
func (sp *StreamProtector) Secret() Secret {
	return Secret{
		Key:           sp.sec.Key,
		Normalization: sp.sec.Normalization,
		ParamsA:       append([]float64(nil), sp.sec.ParamsA...),
		ParamsB:       append([]float64(nil), sp.sec.ParamsB...),
		Columns:       sp.sec.Columns,
	}
}

// Cols returns the column count batches must have.
func (sp *StreamProtector) Cols() int { return sp.cols }

// ProtectBatch releases one batch of rows into fresh memory: a copy of
// the batch through ProtectInPlace. The input is not modified.
func (sp *StreamProtector) ProtectBatch(rows *matrix.Dense) (*matrix.Dense, error) {
	out := rows.Clone()
	if err := sp.ProtectInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// RecoverBatch inverts ProtectBatch into fresh memory: a copy of the batch
// through RecoverInPlace. The input is not modified.
func (sp *StreamProtector) RecoverBatch(rows *matrix.Dense) (*matrix.Dense, error) {
	out := rows.Clone()
	if err := sp.RecoverInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ProtectInPlace releases one batch of rows (any count) over its own
// memory: each row is normalized with the frozen parameters and rotated
// by the frozen key in one pass over the engine's row blocks. A batch
// whose release would carry NaN or Inf is rejected, matching the fitting
// path's contract that a release never carries non-finite values: a
// non-finite input never rotates into a finite output (cos² + sin² = 1),
// and a finite value that normalizes or rotates past float64's range
// lands as ±Inf, so checking the written values catches both. The batch's
// contents are then unspecified.
func (sp *StreamProtector) ProtectInPlace(rows *matrix.Dense) error {
	n, shift, scale, rots := sp.cols, sp.shift, sp.scale, sp.rots
	return sp.eachBlock(rows, func(blk []float64, m int) (check float64) {
		for r := 0; r < m; r++ {
			row := blk[r*n : r*n+n : r*n+n]
			if shift != nil {
				shift, scale := shift[:len(row)], scale[:len(row)]
				for j, v := range row {
					row[j] = (v - shift[j]) / scale[j]
				}
			}
			for _, p := range rots {
				ai, aj := row[p.i], row[p.j]
				row[p.i] = p.c*ai + p.s*aj
				row[p.j] = -p.s*ai + p.c*aj
			}
			check += finiteCheck(row)
		}
		return check
	})
}

// RecoverInPlace inverts ProtectInPlace over the batch's own memory: the
// rotations in reverse order, R(-θ), then the normalization. Like
// ProtectInPlace it rejects a batch whose recovered values would carry
// NaN or Inf.
func (sp *StreamProtector) RecoverInPlace(rows *matrix.Dense) error {
	n, shift, scale, rots := sp.cols, sp.shift, sp.scale, sp.rots
	return sp.eachBlock(rows, func(blk []float64, m int) (check float64) {
		for r := 0; r < m; r++ {
			row := blk[r*n : r*n+n : r*n+n]
			for k := len(rots) - 1; k >= 0; k-- {
				p := rots[k]
				ai, aj := row[p.i], row[p.j]
				row[p.i] = p.c*ai - p.s*aj
				row[p.j] = p.s*ai + p.c*aj
			}
			if shift != nil {
				shift, scale := shift[:len(row)], scale[:len(row)]
				for j, v := range row {
					row[j] = v*scale[j] + shift[j]
				}
			}
			check += finiteCheck(row)
		}
		return check
	})
}

// eachBlock checks that rows has the stream's width, runs kernel over
// every engine row block of rows, as the block's span of the backing
// slice and its row count, and fails the batch when a kernel returns
// NaN: the sum of its rows' finiteCheck.
func (sp *StreamProtector) eachBlock(rows *matrix.Dense, kernel func(blk []float64, m int) float64) error {
	raw, n := rows.Raw(), sp.cols
	if rows.Cols() != n {
		return fmt.Errorf("%w: batch has %d columns, stream expects %d", core.ErrBadInput, rows.Cols(), n)
	}
	var bad atomic.Bool
	sp.eng.forBlocks(rows.Rows(), func(lo, hi int) {
		if check := kernel(raw[lo*n:hi*n], hi-lo); check != check {
			bad.Store(true)
		}
	})
	if bad.Load() {
		return fmt.Errorf("%w: data contains NaN or Inf, or overflows under the key's transform", core.ErrBadInput)
	}
	return nil
}

// finiteCheck returns 0 when every value of row is finite and NaN
// otherwise: v-v is 0 for a finite v and NaN for NaN or ±Inf, and a NaN
// term keeps the sum NaN.
func finiteCheck(row []float64) (sum float64) {
	for _, v := range row {
		sum += v - v
	}
	return sum
}
