// Package quality measures agreement between clusterings and clustering
// quality: misclassification error under optimal label matching (the metric
// the paper's prior work [10] uses to show distortion methods break
// clustering), Rand and adjusted Rand indices, pairwise F-measure, purity,
// normalized mutual information and silhouette.
package quality

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ppclust/internal/dist"
	"ppclust/internal/matrix"
)

// ErrLabels is wrapped by label validation failures.
var ErrLabels = errors.New("quality: invalid labels")

// contingency builds the confusion table between two labelings, mapping
// arbitrary label values (including DBSCAN's -1 noise, treated as its own
// cluster) to dense indices.
func contingency(a, b []int) (table [][]int, na, nb int, err error) {
	if len(a) != len(b) {
		return nil, 0, 0, fmt.Errorf("%w: length mismatch %d vs %d", ErrLabels, len(a), len(b))
	}
	if len(a) == 0 {
		return nil, 0, 0, fmt.Errorf("%w: empty labelings", ErrLabels)
	}
	amap := map[int]int{}
	bmap := map[int]int{}
	for _, x := range a {
		if _, ok := amap[x]; !ok {
			amap[x] = len(amap)
		}
	}
	for _, x := range b {
		if _, ok := bmap[x]; !ok {
			bmap[x] = len(bmap)
		}
	}
	na, nb = len(amap), len(bmap)
	table = make([][]int, na)
	for i := range table {
		table[i] = make([]int, nb)
	}
	for i := range a {
		table[amap[a[i]]][bmap[b[i]]]++
	}
	return table, na, nb, nil
}

// MisclassificationError returns the fraction of points whose cluster
// differs between the two labelings after optimally matching cluster labels
// (Hungarian assignment on the negated contingency table). Zero means the
// partitions are identical up to relabeling — exactly what Corollary 1
// promises for RBT.
func MisclassificationError(a, b []int) (float64, error) {
	table, na, nb, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	n := max(na, nb)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i < na && j < nb {
				cost[i][j] = -float64(table[i][j])
			}
		}
	}
	_, total, err := Hungarian(cost)
	if err != nil {
		return 0, err
	}
	matched := -total
	return 1 - matched/float64(len(a)), nil
}

// RandIndex returns the fraction of point pairs on which the two labelings
// agree (same/same or different/different), in [0, 1].
func RandIndex(a, b []int) (float64, error) {
	table, _, _, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	n := len(a)
	var sumSq float64
	rowSums := make([]float64, len(table))
	colSums := make([]float64, len(table[0]))
	for i, row := range table {
		for j, v := range row {
			f := float64(v)
			sumSq += f * f
			rowSums[i] += f
			colSums[j] += f
		}
	}
	var rowSq, colSq float64
	for _, r := range rowSums {
		rowSq += r * r
	}
	for _, c := range colSums {
		colSq += c * c
	}
	// agreements = C(n,2) + Σij C(nij,2)·2/2 ... expanded in counts:
	// (n² - n + 2·Σ nij² - Σ ri² - Σ cj²) / 2.
	nf := float64(n)
	agreePairs := (nf*nf - nf + 2*sumSq - rowSq - colSq) / 2
	totalPairs := nf * (nf - 1) / 2
	return agreePairs / totalPairs, nil
}

// AdjustedRandIndex returns the Rand index corrected for chance: 1 for
// identical partitions, ~0 for independent ones (can be negative).
func AdjustedRandIndex(a, b []int) (float64, error) {
	table, _, _, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	var sumIJ float64
	rowSums := make([]float64, len(table))
	colSums := make([]float64, len(table[0]))
	for i, row := range table {
		for j, v := range row {
			f := float64(v)
			sumIJ += choose2(f)
			rowSums[i] += f
			colSums[j] += f
		}
	}
	var sumI, sumJ float64
	for _, r := range rowSums {
		sumI += choose2(r)
	}
	for _, c := range colSums {
		sumJ += choose2(c)
	}
	total := choose2(float64(len(a)))
	expected := sumI * sumJ / total
	maxIdx := (sumI + sumJ) / 2
	if maxIdx == expected {
		return 1, nil // both partitions trivial (e.g. single cluster)
	}
	return (sumIJ - expected) / (maxIdx - expected), nil
}

// FMeasure returns the pairwise F1 score treating "same cluster in a" as
// the reference relation and "same cluster in b" as the prediction.
func FMeasure(a, b []int) (float64, error) {
	table, _, _, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	var tp float64
	rowSums := make([]float64, len(table))
	colSums := make([]float64, len(table[0]))
	for i, row := range table {
		for j, v := range row {
			f := float64(v)
			tp += choose2(f)
			rowSums[i] += f
			colSums[j] += f
		}
	}
	var refPairs, predPairs float64
	for _, r := range rowSums {
		refPairs += choose2(r)
	}
	for _, c := range colSums {
		predPairs += choose2(c)
	}
	if refPairs == 0 && predPairs == 0 {
		return 1, nil
	}
	if tp == 0 {
		return 0, nil
	}
	precision := tp / predPairs
	recall := tp / refPairs
	return 2 * precision * recall / (precision + recall), nil
}

// Purity returns the weighted fraction of each predicted cluster occupied
// by its majority reference class.
func Purity(reference, predicted []int) (float64, error) {
	table, _, nb, err := contingency(reference, predicted)
	if err != nil {
		return 0, err
	}
	var correct int
	for j := 0; j < nb; j++ {
		best := 0
		for i := range table {
			if table[i][j] > best {
				best = table[i][j]
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(reference)), nil
}

// NMI returns the normalized mutual information between the two labelings
// (arithmetic-mean normalization), in [0, 1].
func NMI(a, b []int) (float64, error) {
	table, na, nb, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	n := float64(len(a))
	rowSums := make([]float64, na)
	colSums := make([]float64, nb)
	for i, row := range table {
		for j, v := range row {
			rowSums[i] += float64(v)
			colSums[j] += float64(v)
		}
	}
	var mi, ha, hb float64
	for i, row := range table {
		for j, v := range row {
			if v == 0 {
				continue
			}
			p := float64(v) / n
			// MI term: p_ij * log(p_ij / (p_i * p_j)) = p * log(v*n / (r*c)).
			mi += p * math.Log(float64(v)*n/(rowSums[i]*colSums[j]))
		}
	}
	for _, r := range rowSums {
		if r > 0 {
			p := r / n
			ha -= p * math.Log(p)
		}
	}
	for _, c := range colSums {
		if c > 0 {
			p := c / n
			hb -= p * math.Log(p)
		}
	}
	if ha == 0 && hb == 0 {
		return 1, nil
	}
	denom := (ha + hb) / 2
	if denom == 0 {
		return 0, nil
	}
	return mi / denom, nil
}

// Silhouette returns the mean Euclidean silhouette coefficient of the
// labeling over the data, in [-1, 1]. Every negative label is noise and is
// excluded; a point alone in its cluster contributes 0.
//
// The result is exact and builds no m×m distance matrix: it takes O(m²·d)
// time and O(m·k) memory for k clusters. Rows are grouped by cluster, each
// pair distance is computed once, and every (row, cluster) sum receives
// its terms in ascending row order, so the value is bit-for-bit the one a
// row-by-row pass over a distance matrix gives.
//
// It checks ctx before each block of silhouetteBlock grouped rows and
// returns ctx.Err() once ctx is done, so a cancelled job stops within one
// block's O(silhouetteBlock·m·d) work.
func Silhouette(ctx context.Context, data *matrix.Dense, labels []int) (float64, error) {
	m, d := data.Rows(), data.Cols()
	if len(labels) != m {
		return 0, fmt.Errorf("%w: %d labels for %d rows", ErrLabels, len(labels), m)
	}
	// Dense cluster indices in first-seen order; -1 marks noise.
	index := map[int]int{}
	cl := make([]int, m)
	var sizes []int
	for i, l := range labels {
		if l < 0 {
			cl[i] = -1
			continue
		}
		c, ok := index[l]
		if !ok {
			c = len(sizes)
			index[l] = c
			sizes = append(sizes, 0)
		}
		cl[i] = c
		sizes[c]++
	}
	k := len(sizes)
	if k < 2 {
		return 0, fmt.Errorf("%w: silhouette needs at least 2 clusters", ErrLabels)
	}

	// Block c of g holds cluster c's rows in row order, at grouped
	// positions start[c] to start[c+1]-1.
	start := make([]int, k+1)
	for c, n := range sizes {
		start[c+1] = start[c] + n
	}
	next := make([]int, k)
	copy(next, start)
	g := make([]float64, start[k]*d)
	for i, c := range cl {
		if c >= 0 {
			copy(g[next[c]*d:], data.RawRow(i))
			next[c]++
		}
	}

	// sums[p*k+c] totals the distances from grouped row p to the other
	// rows of cluster c. Row p meets every earlier row q once: the
	// distance goes to p's running total toward q's cluster and to q's
	// total toward p's cluster. Both totals grow in ascending row order.
	sums := make([]float64, start[k]*k)
	for cp := 0; cp < k; cp++ {
		for p := start[cp]; p < start[cp+1]; p++ {
			if p%silhouetteBlock == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			rp := g[p*d : p*d+d]
			for cq := 0; cq <= cp; cq++ {
				end := start[cq+1]
				if cq == cp {
					end = p
				}
				var acc float64
				for q := start[cq]; q < end; q++ {
					pq := dist.Euclidean{}.Distance(rp, g[q*d:q*d+d])
					acc += pq
					sums[q*k+cp] += pq
				}
				sums[p*k+cq] = acc
			}
		}
	}

	// The mean runs in row order; a row's grouped position is the next
	// free slot of its cluster's block.
	copy(next, start)
	var sum float64
	var n int
	for _, c := range cl {
		if c < 0 {
			continue
		}
		p := next[c]
		next[c]++
		n++
		if sizes[c] == 1 {
			continue // silhouette defined as 0 for singletons
		}
		row := sums[p*k : p*k+k]
		a := row[c] / float64(sizes[c]-1)
		b := math.Inf(1)
		for o, tot := range row {
			if o == c {
				continue
			}
			if avg := tot / float64(sizes[o]); avg < b {
				b = avg
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		sum += (b - a) / math.Max(a, b)
	}
	return sum / float64(n), nil
}

// silhouetteBlock is how many grouped rows Silhouette scores between
// context checks.
const silhouetteBlock = 256

// SameClustering reports whether two labelings are identical up to label
// permutation (zero misclassification error).
func SameClustering(a, b []int) (bool, error) {
	e, err := MisclassificationError(a, b)
	if err != nil {
		return false, err
	}
	return e < 1e-12, nil
}
