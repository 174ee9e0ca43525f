package quality

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"ppclust/internal/dist"
	"ppclust/internal/matrix"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHungarianKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assignment, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total = %v, want 5", total)
	}
	want := []int{1, 0, 2}
	for i, a := range want {
		if assignment[i] != a {
			t.Fatalf("assignment = %v, want %v", assignment, want)
		}
	}
}

func TestHungarianIdentityAndPermutation(t *testing.T) {
	// Strong diagonal preference.
	cost := [][]float64{{0, 9, 9}, {9, 0, 9}, {9, 9, 0}}
	a, total, err := Hungarian(cost)
	if err != nil || total != 0 {
		t.Fatalf("total = %v err = %v", total, err)
	}
	for i := range a {
		if a[i] != i {
			t.Fatalf("assignment = %v", a)
		}
	}
}

func TestHungarianErrors(t *testing.T) {
	if _, _, err := Hungarian(nil); err == nil {
		t.Fatal("empty should fail")
	}
	if _, _, err := Hungarian([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged should fail")
	}
	if _, _, err := Hungarian([][]float64{{math.NaN()}}); err == nil {
		t.Fatal("NaN should fail")
	}
}

// Hungarian must beat or match brute force on random instances.
func TestQuickHungarianOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = math.Round(rng.Float64()*100) / 10
			}
		}
		_, got, err := Hungarian(cost)
		if err != nil {
			return false
		}
		best := math.Inf(1)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int, cur float64)
		rec = func(k int, cur float64) {
			if cur >= best {
				return
			}
			if k == n {
				best = cur
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k+1, cur+cost[k][perm[k]])
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0, 0)
		return almostEqual(got, best, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMisclassificationError(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	cases := []struct {
		name string
		b    []int
		want float64
	}{
		{"identical", []int{0, 0, 1, 1, 2, 2}, 0},
		{"relabelled", []int{2, 2, 0, 0, 1, 1}, 0},
		{"one moved", []int{0, 0, 1, 1, 2, 1}, 1.0 / 6.0},
		{"different k", []int{0, 0, 0, 0, 1, 1}, 2.0 / 6.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := MisclassificationError(a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tc.want, 1e-12) {
				t.Fatalf("error = %v, want %v", got, tc.want)
			}
		})
	}
	if _, err := MisclassificationError(a, []int{1}); !errors.Is(err, ErrLabels) {
		t.Fatal("length mismatch should fail")
	}
	if _, err := MisclassificationError(nil, nil); !errors.Is(err, ErrLabels) {
		t.Fatal("empty should fail")
	}
}

func TestMisclassificationWithNoiseLabels(t *testing.T) {
	// DBSCAN-style -1 labels are treated as their own cluster.
	a := []int{-1, 0, 0, 1}
	b := []int{-1, 0, 0, 1}
	e, err := MisclassificationError(a, b)
	if err != nil || e != 0 {
		t.Fatalf("e = %v err = %v", e, err)
	}
}

func TestRandIndex(t *testing.T) {
	a := []int{0, 0, 1, 1}
	if r, _ := RandIndex(a, []int{1, 1, 0, 0}); !almostEqual(r, 1, 1e-12) {
		t.Fatalf("identical partitions should give 1, got %v", r)
	}
	if r, _ := RandIndex(a, []int{0, 1, 0, 1}); !almostEqual(r, 1.0/3.0, 1e-12) {
		// Pairs: (01),(23) agree-same in a, split in b; (02),(03),(12),(13)
		// differ in a; in b (02) same, (13) same... manual count: agreements
		// are the 2 cross pairs that are separated in both = (0,3),(1,2).
		t.Fatalf("rand = %v, want 1/3", r)
	}
	if _, err := RandIndex(a, []int{0}); !errors.Is(err, ErrLabels) {
		t.Fatal("length mismatch should fail")
	}
}

func TestAdjustedRandIndex(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	if ari, _ := AdjustedRandIndex(a, []int{1, 1, 2, 2, 0, 0}); !almostEqual(ari, 1, 1e-12) {
		t.Fatalf("permuted identical should give ARI 1, got %v", ari)
	}
	// Single-cluster vs single-cluster: degenerate, defined here as 1.
	if ari, _ := AdjustedRandIndex([]int{0, 0}, []int{5, 5}); ari != 1 {
		t.Fatalf("degenerate ARI = %v", ari)
	}
	// Independent-ish labelings give ARI near 0 (can be negative).
	rng := rand.New(rand.NewSource(3))
	x := make([]int, 2000)
	y := make([]int, 2000)
	for i := range x {
		x[i] = rng.Intn(3)
		y[i] = rng.Intn(3)
	}
	ari, err := AdjustedRandIndex(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ari) > 0.05 {
		t.Fatalf("independent labelings should give ARI ~0, got %v", ari)
	}
}

func TestFMeasure(t *testing.T) {
	a := []int{0, 0, 1, 1}
	if f, _ := FMeasure(a, []int{1, 1, 0, 0}); !almostEqual(f, 1, 1e-12) {
		t.Fatalf("identical should give F=1, got %v", f)
	}
	// All singletons vs reference: no predicted same-pairs, F=0.
	if f, _ := FMeasure(a, []int{0, 1, 2, 3}); f != 0 {
		t.Fatalf("singletons F = %v", f)
	}
	// Both all-singletons: vacuous agreement.
	if f, _ := FMeasure([]int{0, 1}, []int{3, 4}); f != 1 {
		t.Fatalf("degenerate F = %v", f)
	}
}

func TestPurity(t *testing.T) {
	ref := []int{0, 0, 0, 1, 1, 1}
	if p, _ := Purity(ref, []int{0, 0, 0, 1, 1, 1}); p != 1 {
		t.Fatalf("purity = %v", p)
	}
	if p, _ := Purity(ref, []int{0, 0, 0, 0, 0, 0}); !almostEqual(p, 0.5, 1e-12) {
		t.Fatalf("single-cluster purity = %v, want 0.5", p)
	}
}

func TestNMI(t *testing.T) {
	a := []int{0, 0, 1, 1}
	if v, _ := NMI(a, []int{1, 1, 0, 0}); !almostEqual(v, 1, 1e-12) {
		t.Fatalf("identical NMI = %v", v)
	}
	if v, _ := NMI([]int{0, 0, 0}, []int{1, 1, 1}); v != 1 {
		t.Fatalf("degenerate NMI = %v", v)
	}
	// Independent labelings: NMI near 0.
	rng := rand.New(rand.NewSource(4))
	x := make([]int, 3000)
	y := make([]int, 3000)
	for i := range x {
		x[i] = rng.Intn(4)
		y[i] = rng.Intn(4)
	}
	v, err := NMI(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if v > 0.05 || v < -1e-9 {
		t.Fatalf("independent NMI = %v", v)
	}
}

func TestSilhouette(t *testing.T) {
	// Two tight, well-separated pairs: silhouette near 1.
	data := matrix.FromRows([][]float64{{0}, {0.1}, {10}, {10.1}})
	s, err := Silhouette(data, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.95 {
		t.Fatalf("silhouette = %v, want near 1", s)
	}
	// Bad clustering: negative silhouette.
	sBad, err := Silhouette(data, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sBad >= 0 {
		t.Fatalf("bad clustering silhouette = %v, want negative", sBad)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	data := matrix.FromRows([][]float64{{0}, {1}})
	if _, err := Silhouette(data, []int{0}); !errors.Is(err, ErrLabels) {
		t.Fatal("length mismatch should fail")
	}
	if _, err := Silhouette(data, []int{0, 0}); !errors.Is(err, ErrLabels) {
		t.Fatal("single cluster should fail")
	}
	if _, err := Silhouette(data, []int{-1, -1}); !errors.Is(err, ErrLabels) {
		t.Fatal("all-noise should fail")
	}
}

func TestSilhouetteExcludesNoise(t *testing.T) {
	data := matrix.FromRows([][]float64{{0}, {0.1}, {10}, {10.1}, {500}})
	withNoise, err := Silhouette(data, []int{0, 0, 1, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if withNoise < 0.95 {
		t.Fatalf("noise should be excluded, silhouette = %v", withNoise)
	}
}

// silhouetteReference is the row-by-row silhouette over a condensed
// Euclidean distance matrix, the oracle Silhouette must match bit for bit.
func silhouetteReference(data *matrix.Dense, labels []int) (float64, error) {
	m := data.Rows()
	if len(labels) != m {
		return 0, fmt.Errorf("%w: %d labels for %d rows", ErrLabels, len(labels), m)
	}
	counts := map[int]int{}
	for _, l := range labels {
		if l >= 0 {
			counts[l]++
		}
	}
	if len(counts) < 2 {
		return 0, fmt.Errorf("%w: silhouette needs at least 2 clusters", ErrLabels)
	}
	dm := dist.NewDissimMatrix(data, dist.Euclidean{})
	var sum float64
	var n int
	for i := 0; i < m; i++ {
		li := labels[i]
		if li < 0 {
			continue
		}
		n++
		if counts[li] == 1 {
			continue
		}
		intra := 0.0
		inter := map[int]float64{}
		for j := 0; j < m; j++ {
			if j == i || labels[j] < 0 {
				continue
			}
			if labels[j] == li {
				intra += dm.At(i, j)
			} else {
				inter[labels[j]] += dm.At(i, j)
			}
		}
		a := intra / float64(counts[li]-1)
		b := math.Inf(1)
		for l, tot := range inter {
			if avg := tot / float64(counts[l]); avg < b {
				b = avg
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		sum += (b - a) / math.Max(a, b)
	}
	if n == 0 {
		return 0, fmt.Errorf("%w: all points are noise", ErrLabels)
	}
	return sum / float64(n), nil
}

// Property: Silhouette equals the matrix oracle to the bit, and fails with
// the same error, on random shapes, magnitudes and labelings — noise
// labels other than -1, sparse label values, singletons and duplicated
// rows included.
func TestSilhouetteMatchesReference(t *testing.T) {
	clusterIDs := []int{0, 1, 2, 5, 42, 917}
	noiseIDs := []int{-1, -2, -5, -917}
	for seed := int64(1); seed <= 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, d := 2+rng.Intn(59), 1+rng.Intn(6)
		data := matrix.NewDense(m, d, nil)
		for i := 0; i < m; i++ {
			for j := 0; j < d; j++ {
				v := math.Pow(10, -3+6*rng.Float64())
				if rng.Intn(2) == 0 {
					v = -v
				}
				data.SetAt(i, j, v)
			}
			if i > 0 && rng.Intn(20) == 0 {
				copy(data.RawRow(i), data.RawRow(rng.Intn(i)))
			}
		}
		ids := clusterIDs[:1+rng.Intn(len(clusterIDs))]
		noise := rng.Float64() * 0.3
		labels := make([]int, m)
		for i := range labels {
			if rng.Float64() < noise {
				labels[i] = noiseIDs[rng.Intn(len(noiseIDs))]
			} else {
				labels[i] = ids[rng.Intn(len(ids))]
			}
		}
		if rng.Intn(4) == 0 {
			labels[rng.Intn(m)] = 7777 // a singleton cluster
		}
		got, gotErr := Silhouette(data, labels)
		want, wantErr := silhouetteReference(data, labels)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("seed %d: error %v, reference %v", seed, gotErr, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d (%d×%d, labels %v): silhouette %v (%#x), reference %v (%#x)",
				seed, m, d, labels, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// silhouetteFixture draws m points in d dimensions around k separated
// centres, labelled by centre.
func silhouetteFixture(m, d, k int) (*matrix.Dense, []int) {
	rng := rand.New(rand.NewSource(11))
	data := matrix.NewDense(m, d, nil)
	labels := make([]int, m)
	for i := range labels {
		labels[i] = i % k
		for j := 0; j < d; j++ {
			data.SetAt(i, j, 10*float64(labels[i])+rng.NormFloat64())
		}
	}
	return data, labels
}

// Silhouette keeps O(m·k) memory: at 4000×5 the condensed distance matrix
// alone would be 64 MB.
func TestSilhouetteMemory(t *testing.T) {
	data, labels := silhouetteFixture(4000, 5, 3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Silhouette(data, labels); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("silhouette at 4000×5, k=3 allocated %d bytes, want < 1 MB", got)
	}
}

func BenchmarkSilhouette(b *testing.B) {
	data, labels := silhouetteFixture(2000, 5, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Silhouette(data, labels); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSameClustering(t *testing.T) {
	same, err := SameClustering([]int{0, 1, 0}, []int{5, 2, 5})
	if err != nil || !same {
		t.Fatalf("same = %v err = %v", same, err)
	}
	diff, err := SameClustering([]int{0, 1, 0}, []int{5, 2, 2})
	if err != nil || diff {
		t.Fatal("different partitions reported same")
	}
}

// Property: all agreement indices are maximal exactly for permuted-identical
// labelings and the misclassification error is 0 there.
func TestQuickAgreementOnPermutedLabels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		k := 2 + rng.Intn(4)
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(k)
		}
		perm := rng.Perm(k)
		b := make([]int, n)
		for i := range b {
			b[i] = perm[a[i]]
		}
		e, err := MisclassificationError(a, b)
		if err != nil || e > 1e-12 {
			return false
		}
		r, err := RandIndex(a, b)
		if err != nil || !almostEqual(r, 1, 1e-12) {
			return false
		}
		ari, err := AdjustedRandIndex(a, b)
		if err != nil || !almostEqual(ari, 1, 1e-12) {
			return false
		}
		f1, err := FMeasure(a, b)
		return err == nil && almostEqual(f1, 1, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: misclassification error is symmetric and within [0, 1].
func TestQuickMisclassificationBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
			b[i] = rng.Intn(3)
		}
		e1, err1 := MisclassificationError(a, b)
		e2, err2 := MisclassificationError(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return e1 >= 0 && e1 <= 1 && almostEqual(e1, e2, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
