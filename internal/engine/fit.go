// The fit kernel.
//
// The paper's RBT fits a release in two steps: Step 1 normalizes every
// attribute, Step 2 draws each pair's angle from its variance curve and
// rotates the pair. Neither needs the data transposed: every reduction is
// a per-column or per-pair sum in row order. So the kernel works in the
// release itself, row-major, and the release may be the input's own
// memory (ReleaseInto). The passes:
//
//  1. Step 1 statistics on the input (columnMeansStds or columnMinsMaxs).
//  2. Normalize into the release, adding each value to its block's column
//     sum.
//  3. The pairs, layer by layer. A layer is a run of consecutive pairs
//     that share no column, so nothing one of them rotates changes
//     another's statistics: the round-robin schedule is one layer for an
//     even column count and two for an odd one. Per layer, the column
//     sums of any column an earlier layer rotated are summed again; a
//     moments pass walks each pair's two columns with three register
//     accumulators; the angles are drawn in pair order; and one pass
//     over the rows rotates every pair of the layer, with the stream
//     kernel's pairRot table and arithmetic.
//
// core.Transform is the oracle the kernel is checked against (fit_test.go
// locks all of this in):
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
//   - Angle draws consume opts.Rand in core.Transform's sequence: a
//     layer's angles are drawn in pair order from the statistics core
//     sees when it reaches each pair.
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
// is ready to use; its buffer grows on demand and is reused by the next
// call. It is not safe for concurrent use, and results returned from a
// Protect that used the arena alias its memory — they are valid only
// until the arena's next use.
type Arena struct {
	out []float64
}

// ReleaseInto returns an arena that writes the release into buf, which
// should hold rows×cols values (a shorter buf is replaced by a fresh
// allocation). Protect reads each input value before it writes the
// release value at the same index, so buf may be the backing slice of the
// very matrix being protected: the release then overwrites its input, and
// the caller saves a second buffer of the input's size. The input's
// contents are unspecified after a failed Protect.
func ReleaseInto(buf []float64) *Arena { return &Arena{out: buf} }

// release returns an m×n output matrix backed by the arena, or a fresh
// allocation when the receiver is nil (no arena supplied).
func (a *Arena) release(m, n int) *matrix.Dense {
	if a == nil {
		return matrix.NewDense(m, n, nil)
	}
	if cap(a.out) < m*n {
		a.out = make([]float64, m*n)
	}
	a.out = a.out[:m*n]
	return matrix.NewDense(m, n, a.out)
}

// fit is the protect pipeline: Step 1 statistics on the input, then
// normalization and the pair layers in the release.
func (e *Engine) fit(ctx context.Context, data *matrix.Dense, opts ProtectOptions, pl *protectPlan) (*ProtectResult, error) {
	m, n := pl.m, pl.n
	res := &ProtectResult{Normalization: pl.method, Columns: n}

	ctx, normSpan := obs.Start(ctx, "engine.normalize")
	normSpan.Set("rows", m)
	var err error
	switch pl.method {
	case NormZScore:
		res.ParamsA, res.ParamsB, err = e.fitZScore(data)
	case NormMinMax:
		res.ParamsA, res.ParamsB, err = e.fitMinMax(data)
	case NormNone:
	default:
		err = fmt.Errorf("%w: unknown normalization %q", core.ErrBadInput, pl.method)
	}
	if err != nil {
		normSpan.End()
		return nil, err
	}
	shift, scale := shiftScale(pl.method, res.ParamsA, res.ParamsB)

	out := opts.Arena.release(m, n)
	src, rel := data.Raw(), out.Raw()
	nb := e.numBlocks(m)
	sums := e.getScratch(nb * n)
	defer e.putScratch(sums)
	e.forBlocks(m, func(lo, hi int) {
		bs := sums[(lo/e.blockRows)*n : (lo/e.blockRows+1)*n]
		clear(bs)
		for r := lo * n; r < hi*n; r += n {
			in := src[r : r+n : r+n]
			row, bs := rel[r:r+len(in)], bs[:len(in)]
			if shift == nil {
				for j, v := range in {
					row[j] = v
					bs[j] += v
				}
				continue
			}
			shift, scale := shift[:len(in)], scale[:len(in)]
			for j, v := range in {
				nv := (v - shift[j]) / scale[j]
				row[j] = nv
				bs[j] += nv
			}
		}
	})
	mean := make([]float64, n)
	for j := range mean {
		mean[j] = colMean(sums, nb, n, j, m)
	}
	normSpan.End()
	// A non-finite value makes its column's sum non-finite, and so does a
	// sum that overflows. Normalized values are bounded, so only NormNone
	// input can trip this.
	if finiteCheck(mean) != 0 {
		return nil, fmt.Errorf("%w: data contains NaN or Inf", core.ErrBadInput)
	}

	_, rotSpan := obs.Start(ctx, "engine.rotate")
	rotSpan.Set("pairs", len(pl.pairs))
	defer rotSpan.End()
	div := float64(m)
	if opts.Denominator == stats.Sample {
		div = float64(m - 1)
	}
	res.Key = core.Key{Pairs: append([]core.Pair(nil), pl.pairs...), AnglesDeg: make([]float64, len(pl.pairs))}
	res.Reports = make([]core.PairReport, 0, len(pl.pairs))
	rots := make([]pairRot, len(pl.pairs))
	part := e.getScratch(nb * 3 * len(pl.pairs))
	defer e.putScratch(part)
	inLayer, stale := make([]bool, n), make([]bool, n)
	resum := make([]int, 0, n)
	for lo := 0; lo < len(pl.pairs); {
		hi := layerEnd(pl.pairs, lo, inLayer)
		layer, k3 := pl.pairs[lo:hi], 3*(hi-lo)

		// Columns an earlier layer rotated need their sums again.
		resum = resum[:0]
		for j, in := range inLayer {
			if in && stale[j] {
				resum = append(resum, j)
			}
		}
		if len(resum) > 0 {
			e.forBlocks(m, func(lo, hi int) {
				bs := sums[(lo/e.blockRows)*n : (lo/e.blockRows+1)*n]
				for _, j := range resum {
					var s float64
					for r := lo*n + j; r < hi*n; r += n {
						s += rel[r]
					}
					bs[j] = s
				}
			})
			for _, j := range resum {
				mean[j] = colMean(sums, nb, n, j, m)
			}
		}

		// Centered moments, one pair at a time with its three sums in
		// registers: the blocked twin of core.NewVarianceCurve.
		e.forBlocks(m, func(lo, hi int) {
			bp := part[(lo/e.blockRows)*k3 : (lo/e.blockRows+1)*k3]
			for k, p := range layer {
				mx, my := mean[p.I], mean[p.J]
				var ssx, ssy, sxy float64
				for r := lo * n; r < hi*n; r += n {
					dx, dy := rel[r+p.I]-mx, rel[r+p.J]-my
					ssx += dx * dx
					ssy += dy * dy
					sxy += dx * dy
				}
				bp[3*k], bp[3*k+1], bp[3*k+2] = ssx, ssy, sxy
			}
		})
		for k := lo; k < hi; k++ {
			var ssx, ssy, sxy float64
			for b := 0; b < nb; b++ {
				bp := part[b*k3+3*(k-lo):]
				ssx += bp[0]
				ssy += bp[1]
				sxy += bp[2]
			}
			curve := core.VarianceCurve{VarX: ssx / div, VarY: ssy / div, Cov: sxy / div}
			theta, report, err := pickPairAngle(pl, opts, k, &curve)
			if err != nil {
				return nil, err
			}
			rad := rotate.Degrees(theta)
			rots[k] = pairRot{i: pl.pairs[k].I, j: pl.pairs[k].J, c: math.Cos(rad), s: math.Sin(rad)}
			res.Key.AnglesDeg[k] = theta
			res.Reports = append(res.Reports, report)
		}

		if err := e.rotateLayer(rel, n, rots[lo:hi], shift == nil); err != nil {
			return nil, err
		}
		for j, in := range inLayer {
			stale[j] = stale[j] || in
		}
		lo = hi
	}
	res.Released = out
	return res, nil
}

// rotateLayer applies a layer's rotations to every row of the n-column
// matrix raw in one pass, with rotate.Pair's per-row arithmetic. A value
// normalized by a finite, nonzero std or range is bounded (|z| ≤ √(m−1),
// or within [0, 1]), so only NormNone input can rotate past float64's
// range: for it, check sums finiteCheck over the rows the pass writes,
// as the stream kernel does.
func (e *Engine) rotateLayer(raw []float64, n int, rots []pairRot, check bool) error {
	var bad atomic.Bool
	e.forBlocks(len(raw)/n, func(lo, hi int) {
		var sum float64
		for r := lo * n; r < hi*n; r += n {
			row := raw[r : r+n : r+n]
			for _, p := range rots {
				ai, aj := row[p.i], row[p.j]
				row[p.i] = p.c*ai + p.s*aj
				row[p.j] = -p.s*ai + p.c*aj
			}
			if check {
				sum += finiteCheck(row)
			}
		}
		if sum != sum {
			bad.Store(true)
		}
	})
	if bad.Load() {
		return fmt.Errorf("%w: the rotated data overflows float64", core.ErrBadInput)
	}
	return nil
}

// layerEnd returns the end of the layer that starts at pairs[lo]: the
// index of the first later pair that shares a column with the layer, or
// len(pairs). inLayer is set to the layer's columns.
func layerEnd(pairs []core.Pair, lo int, inLayer []bool) int {
	clear(inLayer)
	k := lo
	for ; k < len(pairs); k++ {
		p := pairs[k]
		if inLayer[p.I] || inLayer[p.J] {
			break
		}
		inLayer[p.I], inLayer[p.J] = true, true
	}
	return k
}

// colMean combines column j's per-block sums in block order into its mean
// over m rows.
func colMean(sums []float64, nb, n, j, m int) float64 {
	var s float64
	for b := 0; b < nb; b++ {
		s += sums[b*n+j]
	}
	return s / float64(m)
}
