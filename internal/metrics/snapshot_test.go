package metrics

// Snapshot reader tests: how each name reads, the families' order, and
// a fuzz target over the names a peer can send.

import (
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"
)

func TestReadSnapshot(t *testing.T) {
	got := ReadSnapshot(map[string]int64{
		`req_total{route="/x"}`:               7,
		`queue_depth`:                         3,
		`lat_us_bucket{route="/x",le="+Inf"}`: 4,
		`lat_us_bucket{route="/x",le="100"}`:  2,
		`lat_us_bucket{route="/x",le="20"}`:   1,
		`lat_us_count{route="/x"}`:            4,
		`lat_us_sum{route="/x"}`:              900,
		`odd_bucket`:                          5, // no le: a gauge
		`nan_bucket{le="NaN"}`:                6, // no numeric le: a gauge
		`goroutine_count`:                     9, // no histogram goroutine: a gauge
		`lat_us`:                              1, // a gauge sharing the histogram's name
	})
	want := []Family{
		{Name: "goroutine_count", Kind: KindGauge, Series: []Series{{Name: "goroutine_count", Value: 9}}},
		{Name: "lat_us", Kind: KindGauge, Series: []Series{{Name: "lat_us", Value: 1}}},
		{Name: "lat_us", Kind: KindHistogram, Series: []Series{{
			Labels:  `route="/x"`,
			Buckets: []BucketCount{{20, 1}, {100, 2}, {math.Inf(1), 4}},
			Count:   4, Sum: 900,
		}}},
		{Name: "nan_bucket", Kind: KindGauge, Series: []Series{{Name: `nan_bucket{le="NaN"}`, Labels: `le="NaN"`, Value: 6}}},
		{Name: "odd_bucket", Kind: KindGauge, Series: []Series{{Name: "odd_bucket", Value: 5}}},
		{Name: "queue_depth", Kind: KindGauge, Series: []Series{{Name: "queue_depth", Value: 3}}},
		{Name: "req_total", Kind: KindCounter, Series: []Series{{Name: `req_total{route="/x"}`, Labels: `route="/x"`, Value: 7}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadSnapshot =\n%+v\nwant\n%+v", got, want)
	}
}

// The registry renders its histograms with the names ReadSnapshot reads
// back: le last, the bound in its shortest form.
func TestSnapshotNamesRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(`d_us{route="/x"}`, []float64{2.5, 1e6}).Observe(3)
	snap := reg.Snapshot()
	for _, name := range []string{`d_us_bucket{route="/x",le="2.5"}`, `d_us_bucket{route="/x",le="1e+06"}`, `d_us_bucket{route="/x",le="+Inf"}`, `d_us_count{route="/x"}`, `d_us_sum{route="/x"}`} {
		if _, ok := snap[name]; !ok {
			t.Errorf("snapshot lacks %s: %v", name, snap)
		}
	}
	fams := ReadSnapshot(snap)
	if len(fams) != 1 || fams[0].Kind != KindHistogram || len(fams[0].Series[0].Buckets) != 3 || fams[0].Series[0].Count != 1 {
		t.Fatalf("read back: %+v", fams)
	}
}

// FuzzReadSnapshot: whatever names a peer sends (one per line of the
// input), ReadSnapshot does not panic and every input series lands in
// exactly one family. Each series carries its own bit as its value, and
// the values read back hold every bit exactly once. Families come back
// sorted by name and kind, buckets ascending by bound, and the cluster
// merge of the same snapshot from two nodes does not panic either.
// Seeds under testdata/fuzz are the tests' snapshots and a served
// node's names.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, names string) {
		flat := map[string]int64{}
		for _, name := range strings.Split(names, "\n") {
			if _, dup := flat[name]; !dup && len(flat) < 62 {
				flat[name] = 1 << len(flat)
			}
		}
		var union int64
		ones := 0
		seen := func(v int64) {
			union |= v
			ones += bits.OnesCount64(uint64(v))
		}
		fams := ReadSnapshot(flat)
		for i, fam := range fams {
			if i > 0 && (fams[i-1].Name > fam.Name || fams[i-1].Name == fam.Name && fams[i-1].Kind >= fam.Kind) {
				t.Fatalf("families out of order: %q/%v before %q/%v", fams[i-1].Name, fams[i-1].Kind, fam.Name, fam.Kind)
			}
			for _, s := range fam.Series {
				if fam.Kind != KindHistogram {
					if v, ok := flat[s.Name]; !ok || v != s.Value {
						t.Fatalf("series %q = %d is not an input series", s.Name, s.Value)
					}
					seen(s.Value)
					continue
				}
				for j, b := range s.Buckets {
					if j > 0 && !(s.Buckets[j-1].UpperBound <= b.UpperBound) {
						t.Fatalf("histogram %q{%s}: buckets out of order: %v", fam.Name, s.Labels, s.Buckets)
					}
					seen(b.Count)
				}
				seen(s.Count)
				seen(s.Sum)
			}
		}
		if ones != len(flat) || union != 1<<len(flat)-1 {
			t.Fatalf("%d input series, %d read back (bits %b): %+v", len(flat), ones, union, fams)
		}
		MergeSnapshots(map[string]map[string]int64{"n1": flat, "n2": flat})
	})
}
