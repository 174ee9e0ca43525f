package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"

	"ppclust/internal/cluster"
	"ppclust/internal/dist"
	"ppclust/internal/quality"
	"ppclust/internal/report"
	"ppclust/internal/stats"
)

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	var cf csvFlags
	cf.register(fs)
	algo := fs.String("algo", "kmeans", "algorithm: kmeans, kmedoids, single, complete, average, ward, dbscan, spectral")
	k := fs.Int("k", 2, "number of clusters (ignored by dbscan)")
	eps := fs.Float64("eps", 0.5, "dbscan neighbourhood radius")
	minPts := fs.Int("min-pts", 4, "dbscan core-point threshold")
	seed := fs.Int64("seed", 1, "seed for k-means initialization")
	restarts := fs.Int("restarts", 1, "k-means restarts (best inertia wins)")
	showAssignments := fs.Bool("assignments", false, "print one line per object")
	showDendrogram := fs.Bool("dendrogram", false, "print the merge tree (hierarchical algorithms only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := cf.load()
	if err != nil {
		return err
	}
	var alg cluster.Clusterer
	var hier *cluster.Hierarchical
	switch *algo {
	case "kmeans":
		alg = &cluster.KMeans{K: *k, Rand: rand.New(rand.NewSource(*seed)), Restarts: *restarts}
	case "kmedoids":
		alg = &cluster.KMedoids{K: *k}
	case "single":
		hier = &cluster.Hierarchical{K: *k, Linkage: cluster.SingleLinkage}
		alg = hier
	case "complete":
		hier = &cluster.Hierarchical{K: *k, Linkage: cluster.CompleteLinkage}
		alg = hier
	case "average":
		hier = &cluster.Hierarchical{K: *k, Linkage: cluster.AverageLinkage}
		alg = hier
	case "ward":
		hier = &cluster.Hierarchical{K: *k, Linkage: cluster.WardLinkage}
		alg = hier
	case "dbscan":
		alg = &cluster.DBSCAN{Eps: *eps, MinPts: *minPts}
	case "spectral":
		alg = &cluster.Spectral{K: *k, Rand: rand.New(rand.NewSource(*seed))}
	default:
		return fmt.Errorf("cluster: unknown algorithm %q", *algo)
	}
	if *showDendrogram {
		if hier == nil {
			return fmt.Errorf("cluster: -dendrogram requires a hierarchical algorithm")
		}
		dend, err := hier.Dendrogram(ds.Data)
		if err != nil {
			return err
		}
		rendered, err := dend.Render(ds.IDs, 60)
		if err != nil {
			return err
		}
		fmt.Print(rendered)
	}
	res, err := alg.Cluster(ds.Data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d clusters, %d iterations, inertia %.4f\n", alg.Name(), res.K, res.Iterations, res.Inertia)
	if res.K >= 2 {
		if sil, err := quality.Silhouette(context.Background(), ds.Data, res.Assignments); err == nil {
			fmt.Printf("silhouette: %.4f\n", sil)
		}
	}
	if ds.Labels != nil {
		if e, err := quality.MisclassificationError(ds.Labels, res.Assignments); err == nil {
			fmt.Printf("misclassification vs ground truth: %.4f\n", e)
		}
		if ari, err := quality.AdjustedRandIndex(ds.Labels, res.Assignments); err == nil {
			fmt.Printf("adjusted rand index vs ground truth: %.4f\n", ari)
		}
	}
	counts := map[int]int{}
	for _, a := range res.Assignments {
		counts[a]++
	}
	tb := report.NewTable("cluster", "size")
	for c := 0; c < res.K; c++ {
		tb.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", counts[c]))
	}
	if counts[cluster.Noise] > 0 {
		tb.AddRow("noise", fmt.Sprintf("%d", counts[cluster.Noise]))
	}
	fmt.Print(tb.String())
	if *showAssignments {
		for i, a := range res.Assignments {
			id := fmt.Sprintf("%d", i)
			if ds.IDs != nil {
				id = ds.IDs[i]
			}
			fmt.Printf("%s\t%d\n", id, a)
		}
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	var cf csvFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := cf.load()
	if err != nil {
		return err
	}
	fmt.Printf("%d objects x %d attributes\n\n", ds.Rows(), ds.Cols())
	tb := report.NewTable("attribute", "mean", "std", "min", "median", "max")
	for j, name := range ds.Names {
		s := stats.Describe(ds.Column(j))
		tb.AddRow(name,
			fmt.Sprintf("%.4f", s.Mean), fmt.Sprintf("%.4f", s.Std),
			fmt.Sprintf("%.4f", s.Min), fmt.Sprintf("%.4f", s.Median), fmt.Sprintf("%.4f", s.Max))
	}
	fmt.Print(tb.String())
	return nil
}

func cmdDissim(args []string) error {
	fs := flag.NewFlagSet("dissim", flag.ContinueOnError)
	var cf csvFlags
	cf.register(fs)
	metricName := fs.String("metric", "euclidean", "metric: euclidean, manhattan, chebyshev, cosine")
	limit := fs.Int("limit", 20, "print at most this many objects")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := cf.load()
	if err != nil {
		return err
	}
	metric, err := dist.ByName(*metricName)
	if err != nil {
		return err
	}
	if ds.Rows() > *limit {
		return fmt.Errorf("dissim: %d objects exceeds -limit %d (the matrix would have %d entries)",
			ds.Rows(), *limit, ds.Rows()*(ds.Rows()-1)/2)
	}
	dm := dist.NewDissimMatrix(ds.Data, metric)
	fmt.Printf("dissimilarity matrix (%s):\n%s", metric.Name(), report.LowerTriangle(dm.LowerTriangle()))
	return nil
}

// cmdChooseK sweeps K by silhouette, the model-selection companion for
// analysts who receive a release without knowing the group count.
func cmdChooseK(args []string) error {
	fs := flag.NewFlagSet("choosek", flag.ContinueOnError)
	var cf csvFlags
	cf.register(fs)
	kmin := fs.Int("kmin", 2, "smallest K to try")
	kmax := fs.Int("kmax", 8, "largest K to try")
	seed := fs.Int64("seed", 1, "k-means seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := cf.load()
	if err != nil {
		return err
	}
	sel, err := cluster.ChooseKBySilhouette(ds.Data, *kmin, *kmax, *seed)
	if err != nil {
		return err
	}
	tb := report.NewTable("K", "mean silhouette")
	for k := *kmin; k <= *kmax; k++ {
		marker := ""
		if k == sel.K {
			marker = "  <= best"
		}
		tb.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.4f%s", sel.Scores[k], marker))
	}
	fmt.Print(tb.String())
	fmt.Printf("selected K = %d\n", sel.K)
	return nil
}
