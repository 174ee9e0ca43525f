// The marketing example follows the paper's second motivating scenario
// from the data owner's side: an on-line retailer wants an outside
// analytics firm to segment its customers without handing over anyone's
// actual purchase history.
//
// The retailer protects its RFM-style customer table with RBT, the analyst
// segments the release with Ward hierarchical clustering, ships back only
// the cluster assignments, and the retailer joins those assignments with
// the raw data it never shared to build actionable segment profiles.
//
// Run with:
//
//	go run ./examples/marketing
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ppclust"
	"ppclust/internal/cluster"
	"ppclust/internal/dataset"
	"ppclust/internal/quality"
	"ppclust/internal/report"
	"ppclust/internal/stats"
)

func main() {
	// Retailer side: the private customer table.
	rng := rand.New(rand.NewSource(99))
	customers, err := dataset.SyntheticCustomers(400, 4, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retailer table: %d customers, attributes %v\n", customers.Rows(), customers.Names)

	// Protect for release. KeepIDs lets the analyst return per-customer
	// assignments; the IDs are pseudonymous account numbers.
	protected, err := ppclust.Protect(customers, ppclust.ProtectOptions{
		Thresholds: []ppclust.PST{{Rho1: 0.5, Rho2: 0.5}},
		Seed:       31,
		KeepIDs:    true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Analyst side: sees only rotated values. Segment with Ward linkage.
	ward := &cluster.Hierarchical{K: 4, Linkage: cluster.WardLinkage}
	res, err := ward.Cluster(protected.Released.Data)
	if err != nil {
		log.Fatal(err)
	}
	sil, err := quality.Silhouette(protected.Released.Data, res.Assignments)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analyst: %s found %d segments on the release (silhouette %.3f)\n",
		ward.Name(), res.K, sil)

	// Sanity: the segments match the true generator groups even though the
	// analyst never saw a single real number.
	ari, err := quality.AdjustedRandIndex(res.Assignments, customers.Labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segments vs true generator groups: ARI = %.3f\n\n", ari)

	// Retailer side again: join the analyst's assignments with the raw
	// values (which never left the building) to profile each segment.
	fmt.Println("retailer-side segment profiles (raw attribute means):")
	tb := report.NewTable(append([]string{"segment", "size"}, customers.Names...)...)
	for c := 0; c < res.K; c++ {
		var rows []int
		for i, a := range res.Assignments {
			if a == c {
				rows = append(rows, i)
			}
		}
		cells := []string{fmt.Sprintf("%d", c), fmt.Sprintf("%d", len(rows))}
		sub := customers.Data.SelectRows(rows)
		for j := range customers.Names {
			cells = append(cells, fmt.Sprintf("%.1f", stats.Mean(sub.Col(j))))
		}
		tb.AddRow(cells...)
	}
	fmt.Println(tb.String())
	fmt.Println("the analyst saw none of these raw values; the retailer never saw its own data leave.")
}
