// Package engine is the serving-scale RBT pipeline behind ppclustd and the
// facade's incremental API: the same normalize → rotate-pairs → release
// workflow as internal/core, restructured as a chunked, worker-pool
// computation over row blocks.
//
// Determinism is a hard requirement for a protection service — a release
// must not depend on the machine's core count — so every data-parallel
// reduction is *blocked*: rows are partitioned into fixed-size blocks,
// each block is reduced in row order, and block partials are combined in
// block order. The decomposition depends only on BlockRows, never on the
// worker count, which makes Protect and Recover bit-for-bit identical for
// any Workers setting (engine_test.go locks this in).
package engine

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"ppclust/internal/core"
	"ppclust/internal/matrix"
	"ppclust/internal/rotate"
	"ppclust/internal/stats"
)

// Normalization names for ProtectOptions; they mirror the facade's values.
const (
	// NormZScore standardizes each attribute (Eq. 4); the default.
	NormZScore = "zscore"
	// NormMinMax rescales each attribute to [0, 1] (Eq. 3).
	NormMinMax = "minmax"
	// NormNone skips Step 1; the input must already be normalized.
	NormNone = "none"
)

// DefaultBlockRows is the row-block size used when an Engine is built with
// blockRows <= 0: 8192 rows keeps a 16-column float64 block around 1 MiB,
// comfortably inside L2 on current hardware.
const DefaultBlockRows = 8192

// Engine is a reusable parallel RBT pipeline. It is safe for concurrent
// use; scratch buffers are pooled per call.
type Engine struct {
	workers   int
	blockRows int
	// scratch pools per-pass partial-reduction buffers so steady-state
	// serving does not allocate per request.
	scratch sync.Pool
}

// New returns an engine with the given worker count and row-block size.
// workers <= 0 means GOMAXPROCS; blockRows <= 0 means DefaultBlockRows.
// Changing workers never changes results; changing blockRows may change
// the last bits of the computed statistics (and hence of randomly drawn
// angles), so fix it when reproducibility across configurations matters.
func New(workers, blockRows int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	return &Engine{workers: workers, blockRows: blockRows}
}

// Default returns an engine sized for this process: GOMAXPROCS workers and
// DefaultBlockRows rows per block.
func Default() *Engine { return New(0, 0) }

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.workers }

// ProtectOptions configures Engine.Protect. It mirrors the facade's
// ProtectOptions at the matrix level.
type ProtectOptions struct {
	// Normalization is NormZScore (default when empty), NormMinMax, or
	// NormNone for pre-normalized input.
	Normalization string
	// Pairs defaults to core.RoundRobinPairs.
	Pairs []core.Pair
	// Thresholds holds one PST per pair, or a single PST broadcast to all.
	Thresholds []core.PST
	// Rand supplies the angle randomness, mirroring core.Options.Rand.
	// When nil, a source seeded from Seed (if nonzero) or from
	// crypto/rand is used.
	Rand *rand.Rand
	// Seed pins the angle randomness so a run can be reproduced exactly;
	// it is ignored when Rand is set. 0 (the zero value) draws a fresh
	// unpredictable seed from crypto/rand — with a fixed default seed the
	// rotation key would be a deterministic function of the dataset, and
	// a known-sample attacker could rerun the pipeline and invert the
	// release.
	Seed int64
	// FixedAngles bypasses random angle selection (still PST-checked).
	FixedAngles []float64
	// Denominator selects the variance convention; zero value is Sample.
	Denominator stats.Denominator
	// Arena, when non-nil, supplies reusable backing memory for the
	// released matrix, so steady-state protect allocates ~nothing
	// proportional to the data size. The returned Released matrix
	// aliases the arena: it is only valid until the arena's next use,
	// and an Arena must not be shared by concurrent Protect calls.
	// ReleaseInto builds one that releases into a caller buffer, such as
	// the input's own.
	Arena *Arena
}

// Secret is the frozen inversion state of a protection run: the rotation
// key plus the normalization kind and parameters. It is structurally the
// matrix-level twin of the facade's OwnerSecret.
type Secret struct {
	Key           core.Key
	Normalization string
	// ParamsA holds means (zscore) or mins (minmax); ParamsB holds stds or
	// maxs. Both are empty for NormNone.
	ParamsA, ParamsB []float64
	// Columns is the column count the secret applies to, recorded by
	// Protect. When 0 (hand-built or legacy secrets) it is inferred from
	// the normalization parameters or, failing that, the highest pair
	// index — which under-counts for a NormNone key whose pairs do not
	// touch the trailing columns, so set it explicitly in that case.
	Columns int
}

// Cols returns the column count the secret applies to.
func (s Secret) Cols() int {
	if s.Columns > 0 {
		return s.Columns
	}
	if len(s.ParamsA) > 0 {
		return len(s.ParamsA)
	}
	n := 0
	for _, p := range s.Key.Pairs {
		if p.I >= n {
			n = p.I + 1
		}
		if p.J >= n {
			n = p.J + 1
		}
	}
	return n
}

func (s Secret) validate() error {
	if s.Columns > 0 && len(s.ParamsA) > 0 && s.Columns != len(s.ParamsA) {
		return fmt.Errorf("%w: secret declares %d columns but has %d normalization parameters", core.ErrBadInput, s.Columns, len(s.ParamsA))
	}
	switch s.Normalization {
	case NormZScore, NormMinMax:
		if len(s.ParamsA) == 0 || len(s.ParamsA) != len(s.ParamsB) {
			return fmt.Errorf("%w: %d/%d normalization parameters", core.ErrBadInput, len(s.ParamsA), len(s.ParamsB))
		}
		shift, scale := shiftScale(s.Normalization, s.ParamsA, s.ParamsB)
		for j, sc := range scale {
			if s.Normalization == NormZScore && sc == 0 {
				return fmt.Errorf("%w: zero std for column %d", core.ErrBadInput, j)
			}
			if s.Normalization == NormMinMax && sc == 0 {
				return fmt.Errorf("%w: empty range for column %d", core.ErrBadInput, j)
			}
			if finiteCheck([]float64{shift[j], s.ParamsB[j], sc}) != 0 {
				return fmt.Errorf("%w: non-finite normalization parameters for column %d", core.ErrBadInput, j)
			}
		}
	case NormNone:
	default:
		return fmt.Errorf("%w: unknown normalization %q", core.ErrBadInput, s.Normalization)
	}
	return s.Key.Validate(s.Cols())
}

// ProtectResult is the outcome of Engine.Protect.
type ProtectResult struct {
	// Released is the protected matrix, safe to share.
	Released *matrix.Dense
	// Key is the secret rotation key.
	Key core.Key
	// Reports describes each rotated pair, in application order.
	Reports []core.PairReport
	// Normalization, ParamsA and ParamsB record the frozen Step 1 state.
	Normalization    string
	ParamsA, ParamsB []float64
	// Columns is the protected matrix's column count.
	Columns int
}

// Secret bundles the result's inversion state for Recover and streams.
func (r *ProtectResult) Secret() Secret {
	return Secret{
		Key:           r.Key,
		Normalization: r.Normalization,
		ParamsA:       append([]float64(nil), r.ParamsA...),
		ParamsB:       append([]float64(nil), r.ParamsB...),
		Columns:       r.Columns,
	}
}

// Protect runs the full pipeline (normalize, then PST-constrained pair
// rotations) on data using the engine's worker pool. Angle selection is
// identical in distribution to core.Transform; the released matrix is
// identical for any worker count given the same options.
func (e *Engine) Protect(data *matrix.Dense, opts ProtectOptions) (*ProtectResult, error) {
	return e.ProtectCtx(context.Background(), data, opts)
}

// ProtectCtx is Protect recording per-stage spans (normalize, rotate)
// into the trace carried by ctx. Spans are coarse — one per pipeline
// stage, never per row or per pair — so instrumentation overhead is
// noise even for small batches; with no trace in ctx the cost is two
// context lookups. The output is bit-for-bit identical to Protect.
func (e *Engine) ProtectCtx(ctx context.Context, data *matrix.Dense, opts ProtectOptions) (*ProtectResult, error) {
	pl, err := e.planProtect(data, opts)
	if err != nil {
		return nil, err
	}
	return e.fit(ctx, data, opts, pl)
}

// protectPlan is Protect's validated, defaulted prologue state.
type protectPlan struct {
	m, n       int
	method     string
	pairs      []core.Pair
	thresholds []core.PST
	rng        *rand.Rand
}

// planProtect validates options and resolves every default, without
// consuming any angle randomness beyond seeding the source.
func (e *Engine) planProtect(data *matrix.Dense, opts ProtectOptions) (*protectPlan, error) {
	m, n := data.Dims()
	if m < 2 {
		return nil, fmt.Errorf("%w: need at least 2 rows, got %d", core.ErrBadInput, m)
	}
	if n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 attributes, got %d", core.ErrBadInput, n)
	}
	method := opts.Normalization
	if method == "" {
		method = NormZScore
	}
	pairs := opts.Pairs
	if pairs == nil {
		pairs = core.RoundRobinPairs(n)
	}
	if err := core.ValidatePairs(pairs, n); err != nil {
		return nil, err
	}
	thresholds, err := core.BroadcastThresholds(opts.Thresholds, len(pairs))
	if err != nil {
		return nil, err
	}
	if opts.FixedAngles != nil && len(opts.FixedAngles) != len(pairs) {
		return nil, fmt.Errorf("%w: %d fixed angles for %d pairs", core.ErrBadInput, len(opts.FixedAngles), len(pairs))
	}
	rng := opts.Rand
	if rng == nil {
		seed := opts.Seed
		if seed == 0 {
			var err error
			if seed, err = CryptoSeed(); err != nil {
				return nil, err
			}
		}
		rng = rand.New(rand.NewSource(seed))
	}
	return &protectPlan{m: m, n: n, method: method, pairs: pairs, thresholds: thresholds, rng: rng}, nil
}

// pickPairAngle runs core.Transform's per-pair Step 2 policy: security
// range, fixed-angle PST check or random draw, and the report. It consumes
// pl.rng exactly like core.Transform does.
func pickPairAngle(pl *protectPlan, opts ProtectOptions, k int, curve *core.VarianceCurve) (float64, core.PairReport, error) {
	p := pl.pairs[k]
	ivs, err := curve.SecurityRange(pl.thresholds[k], 0)
	if err != nil {
		return 0, core.PairReport{}, fmt.Errorf("pair %d (%d,%d): %w", k, p.I, p.J, err)
	}
	var theta float64
	if opts.FixedAngles != nil {
		theta = rotate.NormalizeDegrees(opts.FixedAngles[k])
		if curve.Margin(theta, pl.thresholds[k]) < 0 {
			return 0, core.PairReport{}, fmt.Errorf("pair %d (%d,%d): fixed angle %.4f° violates PST (%g,%g): %w",
				k, p.I, p.J, theta, pl.thresholds[k].Rho1, pl.thresholds[k].Rho2, core.ErrEmptySecurityRange)
		}
	} else {
		theta = core.PickAngle(ivs, pl.rng)
	}
	varI, varJ := curve.At(theta)
	return theta, core.PairReport{
		Pair: p, PST: pl.thresholds[k], SecurityRange: ivs,
		ThetaDeg: theta, VarI: varI, VarJ: varJ,
	}, nil
}

// Recover inverts a release into fresh memory: StreamProtector's
// RecoverBatch under s, so each worker undoes the rotations in reverse
// order and the normalization for its row blocks. It is bit-for-bit
// identical for any worker count, accepts batches of any size >= 1
// (unlike Protect, it needs no statistics) and, like a stream recover,
// rejects a batch whose recovered values would carry NaN or Inf.
func (e *Engine) Recover(released *matrix.Dense, s Secret) (*matrix.Dense, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if n, want := released.Cols(), s.Cols(); n != want {
		return nil, fmt.Errorf("%w: %d columns for a %d-column secret", core.ErrBadInput, n, want)
	}
	return e.newStreamProtector(s).RecoverBatch(released)
}

// fitZScore computes per-column means/stds and rejects zero-variance
// columns and stds that overflow float64: a column z-scored by an
// infinite std is all zeros, which no recover can invert.
func (e *Engine) fitZScore(data *matrix.Dense) (means, stds []float64, err error) {
	means, stds, err = e.columnMeansStds(data, stats.Sample)
	if err != nil {
		return nil, nil, err
	}
	for j, s := range stds {
		if s == 0 {
			return nil, nil, fmt.Errorf("%w: column %d has zero variance", core.ErrBadInput, j)
		}
		if math.IsInf(s, 1) {
			return nil, nil, fmt.Errorf("%w: column %d's standard deviation overflows float64", core.ErrBadInput, j)
		}
	}
	return means, stds, nil
}

// fitMinMax computes per-column mins/maxs and rejects constant columns and
// ranges that overflow float64, which would normalize to NaN.
func (e *Engine) fitMinMax(data *matrix.Dense) (mins, maxs []float64, err error) {
	mins, maxs, err = e.columnMinsMaxs(data)
	if err != nil {
		return nil, nil, err
	}
	for j := range mins {
		if mins[j] == maxs[j] {
			return nil, nil, fmt.Errorf("%w: column %d is constant", core.ErrBadInput, j)
		}
		if math.IsInf(maxs[j]-mins[j], 0) {
			return nil, nil, fmt.Errorf("%w: column %d's range overflows float64", core.ErrBadInput, j)
		}
	}
	return mins, maxs, nil
}

// shiftScale returns a normalization as v ↦ (v-shift[j])/scale[j]: the
// means and stds for zscore, the mins and max-min ranges for minmax, and
// nil for NormNone. A range computed once has the bits of the
// per-element max-min of internal/norm.
func shiftScale(method string, a, b []float64) (shift, scale []float64) {
	switch method {
	case NormZScore:
		return a, b
	case NormMinMax:
		scale = make([]float64, len(a))
		for j := range scale {
			scale[j] = b[j] - a[j]
		}
		return a, scale
	}
	return nil, nil
}

// normalizeRow applies the frozen Step 1 parameters to one row in place.
func normalizeRow(row []float64, s Secret) {
	switch s.Normalization {
	case NormZScore:
		for j, v := range row {
			row[j] = (v - s.ParamsA[j]) / s.ParamsB[j]
		}
	case NormMinMax:
		for j, v := range row {
			row[j] = (v - s.ParamsA[j]) / (s.ParamsB[j] - s.ParamsA[j])
		}
	}
}

// NormalizeRow applies the secret's frozen Step 1 normalization to row in
// place, without any rotation. The paper's utility claims compare
// clusterings of the normalized original against the released data (the
// rotation being the only difference) — this is the exported half an
// evaluate workload needs to reproduce that comparison.
func (s Secret) NormalizeRow(row []float64) { normalizeRow(row, s) }

// columnMeansStds reduces per-column means and standard deviations in two
// blocked passes.
func (e *Engine) columnMeansStds(data *matrix.Dense, d stats.Denominator) (means, stds []float64, err error) {
	m, n := data.Dims()
	src := data.Raw()
	nb := e.numBlocks(m)
	part := e.getScratch(nb * n)
	defer e.putScratch(part)

	e.forBlocks(m, func(lo, hi int) {
		sums := part[(lo/e.blockRows)*n : (lo/e.blockRows+1)*n]
		clear(sums)
		for r := lo * n; r < hi*n; r += n {
			for j, v := range src[r : r+n : r+n] {
				sums[j] += v
			}
		}
	})
	means = make([]float64, n)
	for b := 0; b < nb; b++ {
		for j := 0; j < n; j++ {
			means[j] += part[b*n+j]
		}
	}
	for j := range means {
		means[j] /= float64(m)
		if math.IsNaN(means[j]) || math.IsInf(means[j], 0) {
			return nil, nil, fmt.Errorf("%w: data contains NaN or Inf", core.ErrBadInput)
		}
	}

	e.forBlocks(m, func(lo, hi int) {
		ss := part[(lo/e.blockRows)*n : (lo/e.blockRows+1)*n]
		clear(ss)
		for r := lo * n; r < hi*n; r += n {
			for j, v := range src[r : r+n : r+n] {
				dv := v - means[j]
				ss[j] += dv * dv
			}
		}
	})
	stds = make([]float64, n)
	div := float64(m)
	if d == stats.Sample {
		div = float64(m - 1)
	}
	for b := 0; b < nb; b++ {
		for j := 0; j < n; j++ {
			stds[j] += part[b*n+j]
		}
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] / div)
	}
	return means, stds, nil
}

// columnMinsMaxs reduces per-column minima and maxima in one blocked pass.
func (e *Engine) columnMinsMaxs(data *matrix.Dense) (mins, maxs []float64, err error) {
	m, n := data.Dims()
	src := data.Raw()
	nb := e.numBlocks(m)
	part := e.getScratch(nb * 2 * n)
	defer e.putScratch(part)

	var bad atomic.Bool
	e.forBlocks(m, func(lo, hi int) {
		b := lo / e.blockRows
		bmins := part[b*2*n : b*2*n+n]
		bmaxs := part[b*2*n+n : (b+1)*2*n]
		for j := range bmins {
			bmins[j] = math.Inf(1)
			bmaxs[j] = math.Inf(-1)
		}
		for r := lo * n; r < hi*n; r += n {
			for j, v := range src[r : r+n : r+n] {
				// NaN never wins a < / > comparison, so it must be
				// flagged here or it silently vanishes from the
				// reduction and resurfaces as NaN in the release.
				if v != v {
					bad.Store(true)
				}
				if v < bmins[j] {
					bmins[j] = v
				}
				if v > bmaxs[j] {
					bmaxs[j] = v
				}
			}
		}
	})
	if bad.Load() {
		return nil, nil, fmt.Errorf("%w: data contains NaN or Inf", core.ErrBadInput)
	}
	mins = append([]float64(nil), part[:n]...)
	maxs = append([]float64(nil), part[n:2*n]...)
	for b := 1; b < nb; b++ {
		for j := 0; j < n; j++ {
			if v := part[b*2*n+j]; v < mins[j] {
				mins[j] = v
			}
			if v := part[b*2*n+n+j]; v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	for j := range mins {
		if math.IsInf(mins[j], 0) || math.IsInf(maxs[j], 0) {
			return nil, nil, fmt.Errorf("%w: data contains NaN or Inf", core.ErrBadInput)
		}
	}
	return mins, maxs, nil
}

// numBlocks returns the number of row blocks for m rows.
func (e *Engine) numBlocks(m int) int {
	return (m + e.blockRows - 1) / e.blockRows
}

// forBlocks runs fn over every row block [lo, hi). Blocks are claimed from
// an atomic counter by up to Workers goroutines; with one worker (or one
// block) it degenerates to a plain loop. fn must only touch state owned by
// its block.
func (e *Engine) forBlocks(m int, fn func(lo, hi int)) {
	nb := e.numBlocks(m)
	w := e.workers
	if w > nb {
		w = nb
	}
	if w <= 1 {
		for b := 0; b < nb; b++ {
			lo := b * e.blockRows
			fn(lo, min(lo+e.blockRows, m))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nb {
					return
				}
				lo := b * e.blockRows
				fn(lo, min(lo+e.blockRows, m))
			}
		}()
	}
	wg.Wait()
}

// getScratch returns a pooled []float64 of at least size elements.
func (e *Engine) getScratch(size int) []float64 {
	if v := e.scratch.Get(); v != nil {
		if buf := v.([]float64); cap(buf) >= size {
			return buf[:size]
		}
	}
	return make([]float64, size)
}

func (e *Engine) putScratch(buf []float64) { e.scratch.Put(buf[:cap(buf)]) } //nolint:staticcheck

// CryptoSeed draws an int64 from the system CSPRNG. Protection keys must
// be unpredictable unless the caller explicitly pins a seed for a
// reproduction run; every unseeded pipeline (engine and facade) funnels
// through this one helper.
func CryptoSeed() (int64, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("engine: seeding angle randomness: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(b[:])), nil
}
