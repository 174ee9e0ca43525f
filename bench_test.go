package ppclust

// Benchmarks regenerating every table and figure of the paper, one bench
// per artifact (see the experiment index in DESIGN.md), plus the Theorem 1
// scaling sweeps and the extension experiments. Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"math/rand"
	"testing"

	"ppclust/internal/attack"
	"ppclust/internal/baseline"
	"ppclust/internal/cluster"
	"ppclust/internal/core"
	"ppclust/internal/dataset"
	"ppclust/internal/dist"
	"ppclust/internal/engine"
	"ppclust/internal/matrix"
	"ppclust/internal/multiparty"
	"ppclust/internal/norm"
	"ppclust/internal/privacy"
	"ppclust/internal/rotate"
	"ppclust/internal/stats"
)

func paperOpts() ProtectOptions {
	return ProtectOptions{
		Pairs:       []Pair{{I: 0, J: 2}, {I: 1, J: 0}},
		Thresholds:  []PST{{Rho1: 0.30, Rho2: 0.55}, {Rho1: 2.30, Rho2: 2.30}},
		FixedAngles: []float64{312.47, 147.29},
	}
}

// BenchmarkTable1Load regenerates Table 1 (the embedded sample).
func BenchmarkTable1Load(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if ds := dataset.CardiacSample(); ds.Rows() != 5 {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkTable2Normalize regenerates Table 2 (z-score normalization).
func BenchmarkTable2Normalize(b *testing.B) {
	raw := dataset.CardiacSample().Data
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z := &norm.ZScore{Denominator: stats.Sample}
		if _, err := norm.FitTransform(z, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2SecurityRange regenerates Figure 2's security range for
// pair (age, heart_rate) with PST (0.30, 0.55).
func BenchmarkFigure2SecurityRange(b *testing.B) {
	nd := dataset.CardiacNormalized().Data
	curve, err := core.NewVarianceCurve(nd, core.Pair{I: 0, J: 2}, stats.Sample)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := curve.SecurityRange(core.PST{Rho1: 0.30, Rho2: 0.55}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3SecurityRange regenerates Figure 3's security range for
// pair (weight, age') with PST (2.30, 2.30).
func BenchmarkFigure3SecurityRange(b *testing.B) {
	nd := dataset.CardiacNormalized().Data.Clone()
	// Apply the first rotation so the curve sees age', as in the paper.
	if err := rotate.Pair(nd, 0, 2, 312.47); err != nil {
		b.Fatal(err)
	}
	curve, err := core.NewVarianceCurve(nd, core.Pair{I: 1, J: 0}, stats.Sample)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := curve.SecurityRange(core.PST{Rho1: 2.30, Rho2: 2.30}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Transform regenerates Table 3 (the full RBT pipeline with
// the paper's angles) through the public facade.
func BenchmarkTable3Transform(b *testing.B) {
	ds := dataset.CardiacSample()
	opts := paperOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Protect(ds, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Dissimilarity regenerates Table 4 (the dissimilarity
// matrix of the transformed sample).
func BenchmarkTable4Dissimilarity(b *testing.B) {
	released := dataset.CardiacTransformed().Data
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist.NewDissimMatrix(released, dist.Euclidean{})
	}
}

// BenchmarkTable5Renormalize regenerates Table 5 (the re-normalization
// attack and its dissimilarity matrix).
func BenchmarkTable5Renormalize(b *testing.B) {
	released := dataset.CardiacTransformed().Data
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		renorm, err := attack.Renormalize(released)
		if err != nil {
			b.Fatal(err)
		}
		dist.NewDissimMatrix(renorm, dist.Euclidean{})
	}
}

// BenchmarkRBTScalingM sweeps the object count at fixed attribute count —
// the m axis of Theorem 1. ns/op should grow linearly with m.
func BenchmarkRBTScalingM(b *testing.B) {
	for _, m := range []int{1000, 4000, 16000, 64000} {
		data := matrix.RandomDense(m, 8, rand.New(rand.NewSource(1)))
		opts := core.Options{Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}}}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Transform(data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRBTScalingN sweeps the attribute count at fixed object count —
// the n axis of Theorem 1.
func BenchmarkRBTScalingN(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		data := matrix.RandomDense(4000, n, rand.New(rand.NewSource(2)))
		opts := core.Options{Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}}}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Transform(data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIsometryCheck measures the Theorem 2 verification on a
// mid-sized matrix (transform + two dissimilarity matrices + compare).
func BenchmarkIsometryCheck(b *testing.B) {
	data := matrix.RandomDense(500, 6, rand.New(rand.NewSource(3)))
	opts := core.Options{Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Transform(data, opts)
		if err != nil {
			b.Fatal(err)
		}
		before := dist.NewDissimMatrix(data, dist.Euclidean{})
		after := dist.NewDissimMatrix(res.DPrime, dist.Euclidean{})
		if !before.EqualApprox(after, 1e-9) {
			b.Fatal("isometry violated")
		}
	}
}

// BenchmarkCorollary1KMeans measures k-means on RBT-released data — the
// Corollary 1 workload.
func BenchmarkCorollary1KMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ds, err := dataset.WellSeparatedBlobs(2000, 3, 8, 12, rng)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Transform(ds.Data, core.Options{Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg := &cluster.KMeans{K: 3, Rand: rand.New(rand.NewSource(1))}
		if _, err := alg.Cluster(res.DPrime); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVarianceReport measures the EXT1 privacy report.
func BenchmarkVarianceReport(b *testing.B) {
	nd := dataset.CardiacNormalized().Data
	released := dataset.CardiacTransformed().Data
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := privacy.Report(nd, released, nil, stats.Sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecuritySweep measures the EXT2 Sec(θ) sweep (361 curve
// evaluations).
func BenchmarkSecuritySweep(b *testing.B) {
	nd := dataset.CardiacNormalized().Data
	curve, err := core.NewVarianceCurve(nd, core.Pair{I: 0, J: 2}, stats.Sample)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		curve.Sample(361)
	}
}

// BenchmarkBaselineComparison measures one EXT3 sweep step: perturbing a
// 1000x8 matrix with each baseline method.
func BenchmarkBaselineComparison(b *testing.B) {
	data := matrix.RandomDense(1000, 8, rand.New(rand.NewSource(5)))
	perturbers := []baseline.Perturber{
		&baseline.AdditiveNoise{Sigma: 0.5},
		&baseline.Translation{Offsets: []float64{1}},
		&baseline.Scaling{Factors: []float64{2}},
		&baseline.Swapping{},
		&baseline.RandomOrthogonal{},
	}
	for _, p := range perturbers {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Perturb(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKnownIOAttack measures the EXT4 known input-output key recovery
// on a 2000x6 release.
func BenchmarkKnownIOAttack(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	data := matrix.RandomDense(2000, 6, rng)
	res, err := core.Transform(data, core.Options{Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}}})
	if err != nil {
		b.Fatal(err)
	}
	rows := []int{1, 100, 500, 900, 1500, 1999}
	knownOrig := data.SelectRows(rows)
	knownRel := res.DPrime.SelectRows(rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := attack.KnownIO(knownOrig, knownRel)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := attack.RecoverWithQ(res.DPrime, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCAAttack measures the EXT4 eigen-alignment attack (covariance,
// two eigendecompositions, 2^n sign search) on a 2000x4 release.
func BenchmarkPCAAttack(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := 2000
	data := matrix.NewDense(m, 4, nil)
	for i := 0; i < m; i++ {
		a, c, d, e := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		data.SetAt(i, 0, 4*a*a)
		data.SetAt(i, 1, 2*c*c)
		data.SetAt(i, 2, d*d)
		data.SetAt(i, 3, 0.5*e*e)
	}
	res, err := core.Transform(data, core.Options{Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}}})
	if err != nil {
		b.Fatal(err)
	}
	refCov := stats.CovarianceMatrix(data, stats.Sample)
	refSkew := make([]float64, 4)
	for j := range refSkew {
		refSkew[j] = attack.Skewness(data.Col(j))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := attack.PCA(res.DPrime, refCov, refSkew); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtectRecover measures the full facade round trip on a
// realistic release size.
func BenchmarkProtectRecover(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	patients, err := dataset.SyntheticPatients(5000, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	opts := ProtectOptions{Thresholds: []PST{{Rho1: 0.3, Rho2: 0.3}}, Seed: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := Protect(patients, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Recover(p.Released, p.Secret()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusteringAlgorithms measures every clustering family on a
// common 500x4 three-blob workload (the Corollary 1 substrate).
func BenchmarkClusteringAlgorithms(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	ds, err := dataset.WellSeparatedBlobs(500, 3, 4, 12, rng)
	if err != nil {
		b.Fatal(err)
	}
	// Spectral's dense eigendecomposition is O(m³); it gets a smaller
	// workload so the suite stays fast.
	small := ds.Data.SelectRows(rand.New(rand.NewSource(12)).Perm(500)[:200])
	type workload struct {
		mk   func() cluster.Clusterer
		data *matrix.Dense
	}
	algs := []workload{
		{func() cluster.Clusterer { return &cluster.KMeans{K: 3, Rand: rand.New(rand.NewSource(1))} }, ds.Data},
		{func() cluster.Clusterer { return &cluster.KMedoids{K: 3} }, ds.Data},
		{func() cluster.Clusterer { return &cluster.Hierarchical{K: 3, Linkage: cluster.AverageLinkage} }, ds.Data},
		{func() cluster.Clusterer { return &cluster.Hierarchical{K: 3, Linkage: cluster.WardLinkage} }, ds.Data},
		{func() cluster.Clusterer { return &cluster.DBSCAN{Eps: 2, MinPts: 4} }, ds.Data},
		{func() cluster.Clusterer { return &cluster.Spectral{K: 3, Rand: rand.New(rand.NewSource(1))} }, small},
	}
	for _, w := range algs {
		w := w
		b.Run(w.mk().Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.mk().Cluster(w.data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultipartyJoin measures the EXT5 two-party protect-and-join
// pipeline.
func BenchmarkMultipartyJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	population, err := dataset.SyntheticCustomers(1000, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	left := &dataset.Dataset{
		Names: population.Names[:2],
		Data:  population.Data.SubMatrix(0, population.Rows(), 0, 2),
	}
	right := &dataset.Dataset{
		Names: population.Names[2:],
		Data:  population.Data.SubMatrix(0, population.Rows(), 2, 5),
	}
	pst := []core.PST{{Rho1: 0.3, Rho2: 0.3}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		relA, err := (&multiparty.Party{Name: "a", Data: left, Thresholds: pst, Seed: 1}).Protect()
		if err != nil {
			b.Fatal(err)
		}
		relB, err := (&multiparty.Party{Name: "b", Data: right, Thresholds: pst, Seed: 2}).Protect()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := multiparty.Join(relA, relB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineProtectParallel measures the ppclustd serving engine on a
// 100k x 16 workload: the serial facade path first, then the worker-pool
// engine's blocked fit kernel at 1/2/4/8 workers
// ("workers=N"). The arena variant reuses caller-owned buffers across
// iterations (steady-state protect, near-zero allocation).
func BenchmarkEngineProtectParallel(b *testing.B) {
	const m, n = 100_000, 16
	data := matrix.RandomDense(m, n, rand.New(rand.NewSource(40)))
	names := make([]string, n)
	for j := range names {
		names[j] = fmt.Sprintf("a%d", j)
	}
	ds, err := dataset.New(names, data)
	if err != nil {
		b.Fatal(err)
	}
	pst := []PST{{Rho1: 1e-6, Rho2: 1e-6}}

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Protect(ds, ProtectOptions{Thresholds: pst, Seed: 40}); err != nil {
				b.Fatal(err)
			}
		}
	})
	eopts := engine.ProtectOptions{Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}}, Seed: 40}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := engine.New(w, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Protect(data, eopts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("arena/workers=8", func(b *testing.B) {
		eng := engine.New(8, 0)
		opts := eopts
		opts.Arena = &engine.Arena{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Protect(data, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineRecoverParallel measures the fused inverse (rotations +
// denormalization in one pass) on the same 100k x 16 workload.
func BenchmarkEngineRecoverParallel(b *testing.B) {
	data := matrix.RandomDense(100_000, 16, rand.New(rand.NewSource(41)))
	res, err := engine.Default().Protect(data, engine.ProtectOptions{
		Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}},
	})
	if err != nil {
		b.Fatal(err)
	}
	sec := res.Secret()
	for _, w := range []int{1, 4} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			eng := engine.New(w, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Recover(res.Released, sec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamProtector measures incremental batch protection under a
// frozen key — the ppclustd mode=stream hot path. copy/1024x16 protects
// 1024-row, 16-attribute batches into fresh memory (ProtectBatch);
// inplace/4096x16 is the daemon's batch shape at its default -batch-rows,
// refilled from the source and protected in place (ProtectInPlace), as
// the pump reads each batch into its buffer and transforms it there.
func BenchmarkStreamProtector(b *testing.B) {
	seed := matrix.RandomDense(8192, 16, rand.New(rand.NewSource(42)))
	res, err := engine.Default().Protect(seed, engine.ProtectOptions{
		Thresholds: []core.PST{{Rho1: 1e-6, Rho2: 1e-6}},
	})
	if err != nil {
		b.Fatal(err)
	}
	sp, err := engine.Default().NewStreamProtector(res.Secret())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("copy/1024x16", func(b *testing.B) {
		batch := matrix.RandomDense(1024, 16, rand.New(rand.NewSource(43)))
		b.ResetTimer()
		b.ReportAllocs()
		b.SetBytes(int64(1024 * 16 * 8))
		for i := 0; i < b.N; i++ {
			if _, err := sp.ProtectBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inplace/4096x16", func(b *testing.B) {
		src := matrix.RandomDense(4096, 16, rand.New(rand.NewSource(44)))
		batch := matrix.NewDense(4096, 16, nil)
		b.ResetTimer()
		b.ReportAllocs()
		b.SetBytes(int64(4096 * 16 * 8))
		for i := 0; i < b.N; i++ {
			copy(batch.Raw(), src.Raw())
			if err := sp.ProtectInPlace(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
