package cluster

import (
	"context"
	"fmt"
	"math/rand"

	"ppclust/internal/matrix"
	"ppclust/internal/quality"
)

// KSelection reports the silhouette score obtained at each candidate K.
type KSelection struct {
	// K is the winning cluster count.
	K int
	// Scores maps each candidate K to its mean silhouette.
	Scores map[int]float64
}

// ChooseKBySilhouette clusters data with k-means for every K in
// [kmin, kmax] and returns the K with the best mean silhouette — the
// standard model-selection companion for the paper's "release and cluster"
// workflow, where the analyst does not know the true group count.
//
// Because silhouettes depend only on pairwise distances, the selected K is
// the same on D and on RBT(D): model selection survives the transformation
// too.
func ChooseKBySilhouette(data *matrix.Dense, kmin, kmax int, seed int64) (*KSelection, error) {
	sel, _, err := SweepKBySilhouette(context.Background(), data, kmin, kmax, seed, nil)
	return sel, err
}

// SweepKBySilhouette is ChooseKBySilhouette for a served, long-running
// workload: it honors ctx between candidates and inside each silhouette
// (a cancelled sweep returns ctx.Err()), reports each candidate's score
// to onStep as it lands (nil to skip), and additionally returns the
// winning candidate's full clustering and, in Scores, its silhouette, so
// callers do not pay for a recomputation of the chosen K. Candidate
// seeding is identical to ChooseKBySilhouette, so both select the same K
// on the same data.
func SweepKBySilhouette(ctx context.Context, data *matrix.Dense, kmin, kmax int, seed int64, onStep func(k int, score float64)) (*KSelection, *Result, error) {
	if kmin < 2 {
		return nil, nil, fmt.Errorf("%w: kmin = %d, need >= 2 (silhouette is undefined below)", ErrConfig, kmin)
	}
	if kmax < kmin {
		return nil, nil, fmt.Errorf("%w: kmax = %d < kmin = %d", ErrConfig, kmax, kmin)
	}
	if kmax > data.Rows() {
		return nil, nil, fmt.Errorf("%w: kmax = %d exceeds %d objects", ErrConfig, kmax, data.Rows())
	}
	sel := &KSelection{Scores: map[int]float64{}}
	best := -2.0 // silhouettes live in [-1, 1]
	var bestRes *Result
	for k := kmin; k <= kmax; k++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		km := &KMeans{K: k, Rand: rand.New(rand.NewSource(seed)), Restarts: 8}
		res, err := km.Cluster(data)
		if err != nil {
			return nil, nil, err
		}
		score, err := quality.Silhouette(ctx, data, res.Assignments)
		if err != nil {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			// A degenerate solution (k-means collapsed to one effective
			// cluster) scores worst rather than aborting the sweep. No
			// silhouette of a labeling is exactly -1, so the mark is
			// unambiguous.
			score = -1
		}
		sel.Scores[k] = score
		if onStep != nil {
			onStep(k, score)
		}
		if score > best {
			best = score
			sel.K = k
			bestRes = res
		}
	}
	return sel, bestRes, nil
}
