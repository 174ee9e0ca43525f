package obs

import (
	"bytes"
	"fmt"
	"io"

	"ppclust/internal/metrics"
)

// PromContentType is the content type for the Prometheus text exposition
// format served at GET /metrics.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePromFlat renders a flat name → int64 map — a node's own snapshot
// (metrics.Registry.Snapshot plus derived gauges, the /v1/metrics body)
// or the merged cluster snapshot from metrics.MergeSnapshots — as
// Prometheus text format, one TYPE block per metrics.ReadSnapshot
// family in its order: a histogram's series per label set, buckets by
// bound with +Inf last, then its _sum (the snapshot's integer) and
// _count.
func WritePromFlat(w io.Writer, flat map[string]int64) error {
	var b bytes.Buffer
	for _, f := range metrics.ReadSnapshot(flat) {
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Series {
			if f.Kind != metrics.KindHistogram {
				fmt.Fprintf(&b, "%s %d\n", s.Name, s.Value)
				continue
			}
			for _, bc := range s.Buckets {
				fmt.Fprintf(&b, "%s %d\n", metrics.BucketName(f.Name, s.Labels, bc.UpperBound), bc.Count)
			}
			fmt.Fprintf(&b, "%s %d\n%s %d\n",
				metrics.JoinName(f.Name+"_sum", s.Labels), s.Sum, metrics.JoinName(f.Name+"_count", s.Labels), s.Count)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
