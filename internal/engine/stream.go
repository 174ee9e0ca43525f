package engine

import (
	"fmt"
	"math"
	"sync/atomic"

	"ppclust/internal/core"
	"ppclust/internal/matrix"
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
// Note the privacy caveat inherited from the paper's model: the PST was
// verified on the fitting data. If the stream drifts far from the fitted
// distribution, the achieved variances on later batches may differ from
// the fitted Reports; re-fit (key rotation) is the remedy.
type StreamProtector struct {
	eng  *Engine
	sec  Secret
	cols int
	cths []float64
	sths []float64
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
	cths, sths := anglesToCosSin(s.Key.AnglesDeg)
	return &StreamProtector{eng: e, sec: s, cols: s.Cols(), cths: cths, sths: sths}, nil
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
// by the frozen key in one pass over the engine's row blocks. Batches
// containing NaN or Inf are rejected, matching the fitting path's contract
// that a release never carries non-finite values; the batch's contents are
// then unspecified.
func (sp *StreamProtector) ProtectInPlace(rows *matrix.Dense) error {
	if err := sp.checkCols(rows); err != nil {
		return err
	}
	var bad atomic.Bool
	sp.eng.forBlocks(rows.Rows(), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := rows.RawRow(r)
			if !finite(row) {
				bad.Store(true)
			}
			normalizeRow(row, sp.sec)
			for k, p := range sp.sec.Key.Pairs {
				ai, aj := row[p.I], row[p.J]
				row[p.I] = sp.cths[k]*ai + sp.sths[k]*aj
				row[p.J] = -sp.sths[k]*ai + sp.cths[k]*aj
			}
		}
	})
	return nonFinite(&bad)
}

// RecoverInPlace inverts ProtectInPlace over the batch's own memory, using
// the same fused pass and precomputed rotation tables (the secret was
// validated once at construction). Like ProtectInPlace it rejects
// non-finite input.
func (sp *StreamProtector) RecoverInPlace(rows *matrix.Dense) error {
	if err := sp.checkCols(rows); err != nil {
		return err
	}
	var bad atomic.Bool
	sp.eng.forBlocks(rows.Rows(), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := rows.RawRow(r)
			if !finite(row) {
				bad.Store(true)
			}
			for k := len(sp.sec.Key.Pairs) - 1; k >= 0; k-- {
				p := sp.sec.Key.Pairs[k]
				ai, aj := row[p.I], row[p.J]
				row[p.I] = sp.cths[k]*ai - sp.sths[k]*aj
				row[p.J] = sp.sths[k]*ai + sp.cths[k]*aj
			}
			denormalizeRow(row, sp.sec)
		}
	})
	return nonFinite(&bad)
}

func (sp *StreamProtector) checkCols(rows *matrix.Dense) error {
	if n := rows.Cols(); n != sp.cols {
		return fmt.Errorf("%w: batch has %d columns, stream expects %d", core.ErrBadInput, n, sp.cols)
	}
	return nil
}

func finite(row []float64) bool {
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func nonFinite(bad *atomic.Bool) error {
	if bad.Load() {
		return fmt.Errorf("%w: data contains NaN or Inf", core.ErrBadInput)
	}
	return nil
}
