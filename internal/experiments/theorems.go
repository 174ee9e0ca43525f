package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ppclust/internal/cluster"
	"ppclust/internal/core"
	"ppclust/internal/dataset"
	"ppclust/internal/dist"
	"ppclust/internal/matrix"
	"ppclust/internal/quality"
	"ppclust/internal/report"
)

// Theorem1 measures the RBT algorithm's running time while scaling the
// number of objects m and attributes n independently, and fits log-log
// slopes. Theorem 1 claims O(m·n): both slopes should be ≈ 1.
type Theorem1 struct {
	// Ms and Ns override the sweep sizes; nil uses defaults sized for a
	// laptop run.
	Ms, Ns []int
	// Repeats averages each timing over this many runs; 0 means 3.
	Repeats int
}

// ID implements Experiment.
func (Theorem1) ID() string { return "TH1" }

// Title implements Experiment.
func (Theorem1) Title() string { return "Theorem 1: RBT runs in O(m·n)" }

// Run implements Experiment.
func (t Theorem1) Run() (*Outcome, error) {
	ms := t.Ms
	if ms == nil {
		ms = []int{2000, 4000, 8000, 16000, 32000}
	}
	ns := t.Ns
	if ns == nil {
		ns = []int{4, 8, 16, 32, 64}
	}
	repeats := t.Repeats
	if repeats <= 0 {
		repeats = 3
	}
	rng := rand.New(rand.NewSource(1))
	timeRBT := func(m, n int) (float64, error) {
		data := matrix.RandomDense(m, n, rng)
		opts := core.Options{
			Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}},
			Rand:       rand.New(rand.NewSource(2)),
		}
		best := math.Inf(1)
		for r := 0; r < repeats; r++ {
			start := time.Now()
			if _, err := core.Transform(data, opts); err != nil {
				return 0, err
			}
			if el := time.Since(start).Seconds(); el < best {
				best = el
			}
		}
		return best, nil
	}

	tb := report.NewTable("sweep", "size", "seconds")
	var mSizes, mTimes, nSizes, nTimes []float64
	for _, m := range ms {
		el, err := timeRBT(m, 8)
		if err != nil {
			return nil, err
		}
		mSizes = append(mSizes, float64(m))
		mTimes = append(mTimes, el)
		tb.AddRow("m (n=8)", fmt.Sprintf("%d", m), fmt.Sprintf("%.6f", el))
	}
	for _, n := range ns {
		el, err := timeRBT(4000, n)
		if err != nil {
			return nil, err
		}
		nSizes = append(nSizes, float64(n))
		nTimes = append(nTimes, el)
		tb.AddRow("n (m=4000)", fmt.Sprintf("%d", n), fmt.Sprintf("%.6f", el))
	}
	mSlope := logLogSlope(mSizes, mTimes)
	nSlope := logLogSlope(nSizes, nTimes)
	// The tolerance is wide enough to absorb shared-CPU timing noise at
	// sub-millisecond scales while still rejecting quadratic growth
	// (slope 2).
	checks := []Check{
		{Name: "log-log slope in m", Expected: 1, Measured: mSlope, Tolerance: 0.75,
			Note: "linear scaling in the number of objects (quadratic would be 2)"},
		{Name: "log-log slope in n", Expected: 1, Measured: nSlope, Tolerance: 0.75,
			Note: "linear scaling in the number of attributes (quadratic would be 2)"},
	}
	return &Outcome{ID: "TH1", Title: t.Title(), Text: tb.String(), Checks: checks}, nil
}

// logLogSlope fits the least-squares slope of log(y) against log(x).
func logLogSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// Theorem2 verifies isometry on data far larger than the worked example:
// random matrices of several shapes are transformed with random pairs and
// angles, and the dissimilarity matrices before and after are compared.
type Theorem2 struct{}

// ID implements Experiment.
func (Theorem2) ID() string { return "TH2" }

// Title implements Experiment.
func (Theorem2) Title() string { return "Theorem 2: RBT is an isometry (distance preservation)" }

// Run implements Experiment.
func (Theorem2) Run() (*Outcome, error) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][2]int{{50, 2}, {100, 3}, {80, 5}, {60, 8}, {200, 4}}
	tb := report.NewTable("shape", "pairs", "max |ΔDM| (euclidean)", "max |ΔDM| (manhattan-invariance not claimed)")
	worst := 0.0
	for _, s := range shapes {
		data := matrix.RandomDense(s[0], s[1], rng)
		res, err := core.Transform(data, core.Options{
			Pairs:      core.RandomPairs(s[1], rng),
			Thresholds: []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
			Rand:       rng,
		})
		if err != nil {
			return nil, err
		}
		before := dist.NewDissimMatrix(data, dist.Euclidean{})
		after := dist.NewDissimMatrix(res.DPrime, dist.Euclidean{})
		d, err := before.MaxAbsDiff(after)
		if err != nil {
			return nil, err
		}
		if d > worst {
			worst = d
		}
		beforeL1 := dist.NewDissimMatrix(data, dist.Manhattan{})
		afterL1 := dist.NewDissimMatrix(res.DPrime, dist.Manhattan{})
		dL1, err := beforeL1.MaxAbsDiff(afterL1)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("%dx%d", s[0], s[1]),
			fmt.Sprintf("%d", len(res.Key.Pairs)),
			fmt.Sprintf("%.2e", d),
			fmt.Sprintf("%.2e", dL1))
	}
	checks := []Check{
		{Name: "worst-case Euclidean distance drift", Expected: 0, Measured: worst, Tolerance: 1e-9,
			Note: "rotation preserves L2 exactly (up to float rounding); L1 is NOT preserved, as the table shows"},
	}
	return &Outcome{ID: "TH2", Title: Theorem2{}.Title(), Text: tb.String(), Checks: checks}, nil
}

// Corollary1 verifies algorithm independence: seven distance-based
// clustering algorithm families (k-means, PAM, four hierarchical linkages,
// DBSCAN, spectral) produce identical partitions (zero misclassification
// error) on D and on RBT(D), across three qualitatively different datasets.
type Corollary1 struct{}

// ID implements Experiment.
func (Corollary1) ID() string { return "C1" }

// Title implements Experiment.
func (Corollary1) Title() string {
	return "Corollary 1: identical clusters before and after RBT for any distance-based algorithm"
}

// Run implements Experiment.
func (Corollary1) Run() (*Outcome, error) {
	rng := rand.New(rand.NewSource(4))
	blobs, err := dataset.WellSeparatedBlobs(150, 3, 4, 12, rng)
	if err != nil {
		return nil, err
	}
	rings, err := dataset.Rings(400, 2, 0.05, rng)
	if err != nil {
		return nil, err
	}
	// A smaller ring sample for spectral clustering, whose dense
	// eigendecomposition is O(m³).
	ringsSmall, err := dataset.Rings(160, 2, 0.04, rng)
	if err != nil {
		return nil, err
	}
	moons, err := dataset.TwoMoons(200, 0.04, rng)
	if err != nil {
		return nil, err
	}
	type testCase struct {
		name string
		data *matrix.Dense
		// alg is a factory so the before/after runs get identically seeded
		// fresh algorithm instances (a shared rand source would desync).
		alg func() cluster.Clusterer
	}
	cases := []testCase{
		{"blobs", blobs.Data, func() cluster.Clusterer { return &cluster.KMeans{K: 3, Rand: rand.New(rand.NewSource(1))} }},
		{"blobs", blobs.Data, func() cluster.Clusterer { return &cluster.KMedoids{K: 3} }},
		{"blobs", blobs.Data, func() cluster.Clusterer { return &cluster.Hierarchical{K: 3, Linkage: cluster.SingleLinkage} }},
		{"blobs", blobs.Data, func() cluster.Clusterer { return &cluster.Hierarchical{K: 3, Linkage: cluster.CompleteLinkage} }},
		{"blobs", blobs.Data, func() cluster.Clusterer { return &cluster.Hierarchical{K: 3, Linkage: cluster.AverageLinkage} }},
		{"blobs", blobs.Data, func() cluster.Clusterer { return &cluster.Hierarchical{K: 3, Linkage: cluster.WardLinkage} }},
		{"rings", rings.Data, func() cluster.Clusterer { return &cluster.DBSCAN{Eps: 1.2, MinPts: 4} }},
		{"rings", ringsSmall.Data, func() cluster.Clusterer {
			return &cluster.Spectral{K: 2, Sigma: 0.5, Rand: rand.New(rand.NewSource(1))}
		}},
		{"moons", moons.Data, func() cluster.Clusterer { return &cluster.DBSCAN{Eps: 0.25, MinPts: 4} }},
		{"moons", moons.Data, func() cluster.Clusterer { return &cluster.Hierarchical{K: 2, Linkage: cluster.SingleLinkage} }},
	}
	tb := report.NewTable("dataset", "algorithm", "misclassification D vs D'", "same partition")
	var worst float64
	for _, tc := range cases {
		res, err := core.Transform(tc.data, core.Options{
			Pairs:      core.RandomPairs(tc.data.Cols(), rng),
			Thresholds: []core.PST{{Rho1: 1e-9, Rho2: 1e-9}},
			Rand:       rng,
		})
		if err != nil {
			return nil, err
		}
		algBefore, algAfter := tc.alg(), tc.alg()
		before, err := algBefore.Cluster(tc.data)
		if err != nil {
			return nil, err
		}
		after, err := algAfter.Cluster(res.DPrime)
		if err != nil {
			return nil, err
		}
		errRate, err := quality.MisclassificationError(before.Assignments, after.Assignments)
		if err != nil {
			return nil, err
		}
		if errRate > worst {
			worst = errRate
		}
		same := "yes"
		if errRate > 0 {
			same = "NO"
		}
		tb.AddRow(tc.name, algBefore.Name(), fmt.Sprintf("%.4f", errRate), same)
	}
	checks := []Check{
		{Name: "worst misclassification across algorithms", Expected: 0, Measured: worst, Tolerance: 0,
			Note: "Corollary 1: partitions identical up to label permutation"},
	}
	return &Outcome{ID: "C1", Title: Corollary1{}.Title(), Text: tb.String(), Checks: checks}, nil
}
