// The columnar RBT kernel.
//
// An RBT pair rotation touches exactly two attributes, but on a row-major
// matrix every pair pass would still stream the whole matrix: each row's
// cache line is pulled in to read two of its n values. The kernel gathers
// the (normalized) data into a column-major scratch buffer once, runs
// every per-pair reduction and rotation over two *contiguous* column
// slices, and scatters the result back to a row-major release — so the K
// pair passes touch 2/n of the matrix each instead of all of it.
//
// core.Transform is the oracle the kernel is checked against
// (colkernel_test.go locks all of this in):
//
//   - Normalization and rotation are element-wise, with the per-element
//     arithmetic of internal/norm and rotate.Pair.
//   - Every reduction is blocked: each blockRows block reduces in row
//     order, and block partials combine in block order. The split depends
//     only on blockRows, never on the worker count, so the release does
//     not depend on Workers. With a single block this is core's serial
//     order, so release and key equal core.Transform's bit for bit; with
//     several, the statistics (and hence the drawn angles) may differ from
//     core's in the last bits, while the rotation by given angles stays
//     bit-identical.
//   - Angle draws consume opts.Rand in core.Transform's sequence.
//
// Fusion: normalization is fused into the gather (the transpose pass
// writes already-normalized values), and when the pair schedule is
// disjoint — no attribute appears in two pairs, true for the default
// round-robin schedule on an even column count — the first-moment sums of
// *all* pairs are also fused into the gather, eliminating one full pass
// per pair. The rotation itself cannot fuse with the statistics passes:
// the angle is drawn from the very variance curve those passes compute.
package engine

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"ppclust/internal/core"
	"ppclust/internal/matrix"
	"ppclust/internal/obs"
	"ppclust/internal/rotate"
	"ppclust/internal/stats"
)

// Arena is caller-owned reusable backing memory for Protect. A zero Arena
// is ready to use; buffers grow on demand and are reused by the next call.
// It is not safe for concurrent use, and results returned from a Protect
// that used the arena alias its memory — they are valid only until the
// arena's next use.
type Arena struct {
	out  []float64
	cols []float64
}

// ReleaseInto returns an arena that writes the release into buf, which
// should hold rows×cols values (a shorter buf is replaced by a fresh
// allocation). Protect gathers the whole input before it writes the
// release, so buf may back the very matrix being protected: the release
// then overwrites its input, and the caller saves a second buffer of the
// input's size. The input's contents are unspecified after a failed
// Protect. Like any arena, it also holds the columnar gather buffer, so a
// one-request arena allocates that buffer and lets it go with the request
// instead of keeping it pooled.
func ReleaseInto(buf []float64) *Arena { return &Arena{out: buf} }

// release returns an m×n output matrix backed by the arena, or a fresh
// allocation when the receiver is nil (no arena supplied).
func (a *Arena) release(m, n int) *matrix.Dense {
	if a == nil {
		return matrix.NewDense(m, n, nil)
	}
	a.out = growF64(a.out, m*n)
	return matrix.NewDense(m, n, a.out)
}

func growF64(buf []float64, size int) []float64 {
	if cap(buf) >= size {
		return buf[:size]
	}
	return make([]float64, size)
}

// getColScratch returns a pooled column-major gather buffer of at least
// size elements.
func (e *Engine) getColScratch(size int) []float64 {
	if v := e.colScratch.Get(); v != nil {
		if buf := v.([]float64); cap(buf) >= size {
			return buf[:size]
		}
	}
	return make([]float64, size)
}

func (e *Engine) putColScratch(buf []float64) { e.colScratch.Put(buf[:cap(buf)]) } //nolint:staticcheck

// pairsDisjoint reports whether no attribute index appears in two pairs —
// the condition under which per-pair first moments can be computed during
// the gather, before any rotation has run.
func pairsDisjoint(pairs []core.Pair, n int) bool {
	seen := make([]bool, n)
	for _, p := range pairs {
		if seen[p.I] || seen[p.J] {
			return false
		}
		seen[p.I], seen[p.J] = true, true
	}
	return true
}

// protectColumnar is the protect pipeline: fit Step 1 statistics on the
// row-major input, gather+normalize into column-major scratch, rotate
// pairs over contiguous columns, scatter back to a row-major release.
func (e *Engine) protectColumnar(ctx context.Context, data *matrix.Dense, opts ProtectOptions, pl *protectPlan) (*ProtectResult, error) {
	m, n := pl.m, pl.n
	res := &ProtectResult{Normalization: pl.method, Columns: n}

	ctx, normSpan := obs.Start(ctx, "engine.normalize")
	normSpan.Set("rows", m)
	var paramsA, paramsB []float64
	var err error
	switch pl.method {
	case NormZScore:
		paramsA, paramsB, err = e.fitZScore(data)
	case NormMinMax:
		paramsA, paramsB, err = e.fitMinMax(data)
	case NormNone:
	default:
		err = fmt.Errorf("%w: unknown normalization %q", core.ErrBadInput, pl.method)
	}
	if err != nil {
		normSpan.End()
		return nil, err
	}
	if pl.method != NormNone {
		res.ParamsA, res.ParamsB = paramsA, paramsB
	}

	var cols []float64
	if ar := opts.Arena; ar != nil {
		ar.cols = growF64(ar.cols, m*n)
		cols = ar.cols
	} else {
		cols = e.getColScratch(m * n)
		defer e.putColScratch(cols)
	}

	// With a disjoint schedule the gather also accumulates each block's
	// per-column sums: exactly colPairSums' pass, in the same row and
	// block order, so the fused sums are bit-identical to the unfused
	// ones.
	fuseSums := pairsDisjoint(pl.pairs, n)
	nb := e.numBlocks(m)
	var sums []float64
	if fuseSums {
		sums = e.getScratch(nb * n)
		defer e.putScratch(sums)
	}

	var bad atomic.Bool
	e.forBlocks(m, func(lo, hi int) {
		var bs []float64
		if fuseSums {
			bs = sums[(lo/e.blockRows)*n : (lo/e.blockRows+1)*n]
			clear(bs)
		}
		switch pl.method {
		case NormZScore:
			for r := lo; r < hi; r++ {
				for j, v := range data.RawRow(r) {
					nv := (v - paramsA[j]) / paramsB[j]
					cols[j*m+r] = nv
					if fuseSums {
						bs[j] += nv
					}
				}
			}
		case NormMinMax:
			for r := lo; r < hi; r++ {
				for j, v := range data.RawRow(r) {
					nv := (v - paramsA[j]) / (paramsB[j] - paramsA[j])
					cols[j*m+r] = nv
					if fuseSums {
						bs[j] += nv
					}
				}
			}
		case NormNone:
			for r := lo; r < hi; r++ {
				for j, v := range data.RawRow(r) {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						bad.Store(true)
					}
					cols[j*m+r] = v
					if fuseSums {
						bs[j] += v
					}
				}
			}
		}
	})
	normSpan.End()
	if bad.Load() {
		return nil, fmt.Errorf("%w: data contains NaN or Inf", core.ErrBadInput)
	}

	_, rotSpan := obs.Start(ctx, "engine.rotate")
	rotSpan.Set("pairs", len(pl.pairs))
	defer rotSpan.End()
	res.Key = core.Key{Pairs: append([]core.Pair(nil), pl.pairs...), AnglesDeg: make([]float64, len(pl.pairs))}
	for k, p := range pl.pairs {
		ci, cj := cols[p.I*m:(p.I+1)*m], cols[p.J*m:(p.J+1)*m]
		var sx, sy float64
		if fuseSums {
			for b := 0; b < nb; b++ {
				sx += sums[b*n+p.I]
				sy += sums[b*n+p.J]
			}
		} else {
			sx, sy = e.colPairSums(ci, cj, m)
		}
		curve := e.colPairCurve(ci, cj, m, sx, sy, opts.Denominator)
		theta, report, err := pickPairAngle(pl, opts, k, curve)
		if err != nil {
			return nil, err
		}
		e.colRotatePair(ci, cj, m, theta)
		res.Key.AnglesDeg[k] = theta
		res.Reports = append(res.Reports, report)
	}

	out := opts.Arena.release(m, n)
	e.forBlocks(m, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			dst := out.RawRow(r)
			for j := range dst {
				dst[j] = cols[j*m+r]
			}
		}
	})
	res.Released = out
	return res, nil
}

// colPairSums is the first statistics pass over two contiguous columns:
// blocked per-column sums, combined in block order.
func (e *Engine) colPairSums(ci, cj []float64, m int) (sx, sy float64) {
	nb := e.numBlocks(m)
	part := e.getScratch(nb * 3)
	defer e.putScratch(part)
	e.forBlocks(m, func(lo, hi int) {
		var bx, by float64
		for r := lo; r < hi; r++ {
			bx += ci[r]
			by += cj[r]
		}
		b := lo / e.blockRows
		part[b*3], part[b*3+1] = bx, by
	})
	for b := 0; b < nb; b++ {
		sx += part[b*3]
		sy += part[b*3+1]
	}
	return sx, sy
}

// colPairCurve is the second statistics pass over two contiguous columns:
// blocked centered moments around the means derived from (sx, sy), the
// blocked twin of core.NewVarianceCurve.
func (e *Engine) colPairCurve(ci, cj []float64, m int, sx, sy float64, d stats.Denominator) *core.VarianceCurve {
	mx, my := sx/float64(m), sy/float64(m)
	nb := e.numBlocks(m)
	part := e.getScratch(nb * 3)
	defer e.putScratch(part)
	e.forBlocks(m, func(lo, hi int) {
		var ssx, ssy, sxy float64
		for r := lo; r < hi; r++ {
			dx, dy := ci[r]-mx, cj[r]-my
			ssx += dx * dx
			ssy += dy * dy
			sxy += dx * dy
		}
		b := lo / e.blockRows
		part[b*3], part[b*3+1], part[b*3+2] = ssx, ssy, sxy
	})
	var ssx, ssy, sxy float64
	for b := 0; b < nb; b++ {
		ssx += part[b*3]
		ssy += part[b*3+1]
		sxy += part[b*3+2]
	}
	div := float64(m)
	if d == stats.Sample {
		div = float64(m - 1)
	}
	return &core.VarianceCurve{VarX: ssx / div, VarY: ssy / div, Cov: sxy / div}
}

// colRotatePair applies R(θ) to two contiguous columns with the exact
// per-row arithmetic of rotate.Pair.
func (e *Engine) colRotatePair(ci, cj []float64, m int, thetaDeg float64) {
	rad := rotate.Degrees(thetaDeg)
	cth, sth := math.Cos(rad), math.Sin(rad)
	e.forBlocks(m, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ai, aj := ci[r], cj[r]
			ci[r] = cth*ai + sth*aj
			cj[r] = -sth*ai + cth*aj
		}
	})
}
