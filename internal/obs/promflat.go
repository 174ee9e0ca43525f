package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"ppclust/internal/metrics"
)

// PromContentType is the content type for the Prometheus text exposition
// format served at GET /metrics.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePromFlat renders a flat name → int64 map — a node's own snapshot
// (metrics.Registry.Snapshot plus derived gauges, the /v1/metrics body)
// or the merged cluster snapshot from metrics.MergeSnapshots — as
// Prometheus text format. Histogram families are reconstructed from the
// flat keys: `*_bucket` series with an `le` label are regrouped per label
// set, ordered by numeric bound with `+Inf` last, and reunited with their
// `_count` and `_sum` series (the sum as the snapshot's integer).
// `*_total` series render as counters, the rest as gauges. Families are
// emitted in sorted name order.
func WritePromFlat(w io.Writer, flat map[string]int64) error {
	fams := map[string]bool{}
	for name := range flat {
		base, labels := metrics.SplitName(name)
		if strings.HasSuffix(base, "_bucket") {
			if _, _, ok := metrics.LabelValue(labels, "le"); ok {
				fams[strings.TrimSuffix(base, "_bucket")] = true
			}
		}
	}

	type bucket struct {
		le    float64
		count int64
	}
	type histSeries struct {
		labels  string // label body without le
		buckets []bucket
		count   int64
		sum     int64
	}
	type family struct {
		kind  string
		lines []string               // non-histogram sample lines
		hist  map[string]*histSeries // histogram label set → series
	}
	get := func(byName map[string]*family, base, kind string) *family {
		f := byName[base]
		if f == nil {
			f = &family{kind: kind}
			if kind == "histogram" {
				f.hist = map[string]*histSeries{}
			}
			byName[base] = f
		}
		return f
	}
	series := func(f *family, labels string) *histSeries {
		s := f.hist[labels]
		if s == nil {
			s = &histSeries{labels: labels}
			f.hist[labels] = s
		}
		return s
	}

	byName := map[string]*family{}
	for name, v := range flat {
		base, labels := metrics.SplitName(name)
		switch {
		case strings.HasSuffix(base, "_bucket") && fams[strings.TrimSuffix(base, "_bucket")]:
			fam := strings.TrimSuffix(base, "_bucket")
			le, rest, ok := metrics.LabelValue(labels, "le")
			if !ok {
				continue
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				if b, err := strconv.ParseFloat(le, 64); err == nil {
					bound = b
				}
			}
			s := series(get(byName, fam, "histogram"), rest)
			s.buckets = append(s.buckets, bucket{le: bound, count: v})
		case strings.HasSuffix(base, "_count") && fams[strings.TrimSuffix(base, "_count")]:
			series(get(byName, strings.TrimSuffix(base, "_count"), "histogram"), labels).count = v
		case strings.HasSuffix(base, "_sum") && fams[strings.TrimSuffix(base, "_sum")]:
			series(get(byName, strings.TrimSuffix(base, "_sum"), "histogram"), labels).sum = v
		case strings.HasSuffix(base, "_total"):
			f := get(byName, base, "counter")
			f.lines = append(f.lines, fmt.Sprintf("%s %d", name, v))
		default:
			f := get(byName, base, "gauge")
			f.lines = append(f.lines, fmt.Sprintf("%s %d", name, v))
		}
	}

	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := byName[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
			return err
		}
		if f.kind != "histogram" {
			sort.Strings(f.lines)
			for _, line := range f.lines {
				if _, err := io.WriteString(w, line+"\n"); err != nil {
					return err
				}
			}
			continue
		}
		keys := make([]string, 0, len(f.hist))
		for k := range f.hist {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.hist[k]
			sort.Slice(s.buckets, func(i, j int) bool { return s.buckets[i].le < s.buckets[j].le })
			for _, b := range s.buckets {
				le := "+Inf"
				if !math.IsInf(b.le, 1) {
					le = strconv.FormatFloat(b.le, 'g', -1, 64)
				}
				labels := fmt.Sprintf("le=%q", le)
				if s.labels != "" {
					labels = s.labels + "," + labels
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, labels, b.count); err != nil {
					return err
				}
			}
			suffix := ""
			if s.labels != "" {
				suffix = "{" + s.labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n",
				name, suffix, s.sum, name, suffix, s.count); err != nil {
				return err
			}
		}
	}
	return nil
}
