package core

import (
	"fmt"
	"math/rand"

	"ppclust/internal/matrix"
	"ppclust/internal/rotate"
)

// PairReport records what happened to one attribute pair during the
// transformation: the security range that was computed, the angle that was
// drawn from it, and the achieved security variances.
type PairReport struct {
	Pair          Pair
	PST           PST
	SecurityRange []Interval
	ThetaDeg      float64
	// VarI and VarJ are the achieved Var(Ai - Ai') and Var(Aj - Aj'),
	// measured against the pair's input columns (which for a reused
	// attribute are the already-distorted values, matching the paper's
	// worked example).
	VarI, VarJ float64
}

// Result is the outcome of an RBT transformation.
type Result struct {
	// DPrime is the transformed data matrix D' that is safe to release.
	DPrime *matrix.Dense
	// Key holds everything needed to invert the transformation. It must be
	// kept secret by the data owner.
	Key Key
	// Reports holds one entry per distorted pair, in application order.
	Reports []PairReport
}

// Transform runs the RBT algorithm of Section 4.3 on a normalized data
// matrix and returns the released matrix, the secret key and a per-pair
// report. The input matrix is not modified.
//
// Complexity is O(m·n) in rows m and attributes n (Theorem 1): each of the
// ≤ ⌈n/2⌉ pairs costs one O(m) statistics pass, an O(1) closed-form
// security range (the roots of two quartics) and one O(m) rotation.
func Transform(data *matrix.Dense, opts Options) (*Result, error) {
	m, n := data.Dims()
	if m < 2 {
		return nil, fmt.Errorf("%w: need at least 2 rows, got %d", ErrBadInput, m)
	}
	if n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 attributes, got %d", ErrBadInput, n)
	}
	if data.HasNaN() {
		return nil, fmt.Errorf("%w: data contains NaN or Inf", ErrBadInput)
	}
	pairs := opts.Pairs
	if pairs == nil {
		pairs = RoundRobinPairs(n)
	}
	if err := ValidatePairs(pairs, n); err != nil {
		return nil, err
	}
	thresholds, err := BroadcastThresholds(opts.Thresholds, len(pairs))
	if err != nil {
		return nil, err
	}
	if opts.FixedAngles != nil && len(opts.FixedAngles) != len(pairs) {
		return nil, fmt.Errorf("%w: %d fixed angles for %d pairs", ErrBadInput, len(opts.FixedAngles), len(pairs))
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}

	out := data.Clone()
	result := &Result{
		DPrime: out,
		Key:    Key{Pairs: append([]Pair(nil), pairs...), AnglesDeg: make([]float64, len(pairs))},
	}
	for k, p := range pairs {
		curve, err := NewVarianceCurve(out, p, opts.Denominator)
		if err != nil {
			return nil, fmt.Errorf("pair %d: %w", k, err)
		}
		ivs, err := curve.SecurityRange(thresholds[k], 0)
		if err != nil {
			return nil, fmt.Errorf("pair %d (%d,%d): %w", k, p.I, p.J, err)
		}
		var theta float64
		if opts.FixedAngles != nil {
			theta = rotate.NormalizeDegrees(opts.FixedAngles[k])
			if curve.Margin(theta, thresholds[k]) < 0 {
				return nil, fmt.Errorf("pair %d (%d,%d): fixed angle %.4f° violates PST (%g,%g): %w",
					k, p.I, p.J, theta, thresholds[k].Rho1, thresholds[k].Rho2, ErrEmptySecurityRange)
			}
		} else {
			theta = PickAngle(ivs, rng)
		}
		varI, varJ := curve.At(theta)
		if err := rotate.Pair(out, p.I, p.J, theta); err != nil {
			return nil, fmt.Errorf("pair %d: %w", k, err)
		}
		result.Key.AnglesDeg[k] = theta
		result.Reports = append(result.Reports, PairReport{
			Pair: p, PST: thresholds[k], SecurityRange: ivs,
			ThetaDeg: theta, VarI: varI, VarJ: varJ,
		})
	}
	return result, nil
}

// BroadcastThresholds validates the PST list and expands a single
// threshold to one per pair — shared by Transform and the serving engine.
func BroadcastThresholds(ts []PST, pairs int) ([]PST, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("%w: no thresholds given", ErrBadThreshold)
	}
	if len(ts) == 1 {
		out := make([]PST, pairs)
		for i := range out {
			out[i] = ts[0]
		}
		ts = out
	}
	if len(ts) != pairs {
		return nil, fmt.Errorf("%w: %d thresholds for %d pairs", ErrBadInput, len(ts), pairs)
	}
	for i, t := range ts {
		if err := t.Valid(); err != nil {
			return nil, fmt.Errorf("threshold %d: %w", i, err)
		}
	}
	return ts, nil
}
