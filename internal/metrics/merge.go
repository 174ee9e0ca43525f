package metrics

// Cluster-wide snapshot merging. Each node's /v1/metrics body is a flat
// name → int64 map in the registry's Prometheus-convention naming;
// MergeSnapshots folds N of them into one cluster view:
//
//   - counters and histograms are summed — same-boundary histograms
//     merge bucket-by-bucket because every node uses the same fixed
//     bounds for a given metric;
//   - gauges, where summing would be a lie (a queue depth of 3 on one
//     node and 5 on another is not "8 somewhere"), are relabelled with
//     a `node` label instead.

// MergeSnapshots merges per-node flat snapshots into one cluster-wide
// map, each read by ReadSnapshot. Input maps are not modified.
func MergeSnapshots(perNode map[string]map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for node, snap := range perNode {
		for _, f := range ReadSnapshot(snap) {
			for _, s := range f.Series {
				switch f.Kind {
				case KindCounter:
					out[s.Name] += s.Value
				case KindGauge:
					out[WithNodeLabel(s.Name, node)] = s.Value
				case KindHistogram:
					for _, b := range s.Buckets {
						out[BucketName(f.Name, s.Labels, b.UpperBound)] += b.Count
					}
					out[JoinName(f.Name+"_count", s.Labels)] += s.Count
					out[JoinName(f.Name+"_sum", s.Labels)] += s.Sum
				}
			}
		}
	}
	return out
}

// WithNodeLabel splices `node="id"` into a series name, after any
// existing labels.
func WithNodeLabel(name, node string) string {
	base, labels := splitLabels(name)
	if labels != "" {
		labels += ","
	}
	return JoinName(base, labels+`node="`+node+`"`)
}
