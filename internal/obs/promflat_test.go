package obs

// WritePromFlat unit tests: TYPE classification from flat keys alone,
// numeric bucket ordering with +Inf last, histogram reassembly per
// label set, and deterministic output order.

import (
	"strings"
	"testing"
)

func TestWritePromFlat(t *testing.T) {
	flat := map[string]int64{
		`rows_ingested_total`:                          42,
		`http_requests_total{route="/x",status="200"}`: 7,
		`queue_depth{node="n1"}`:                       3,
		`queue_depth{node="n2"}`:                       5,
		`lat_us_bucket{route="/x",le="100"}`:           1,
		`lat_us_bucket{route="/x",le="+Inf"}`:          4,
		`lat_us_bucket{route="/x",le="20"}`:            1,
		`lat_us_count{route="/x"}`:                     4,
		`lat_us_sum{route="/x"}`:                       900,
	}
	var sb strings.Builder
	if err := WritePromFlat(&sb, flat); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE rows_ingested_total counter",
		"# TYPE http_requests_total counter",
		"# TYPE queue_depth gauge",
		"# TYPE lat_us histogram",
		`queue_depth{node="n1"} 3`,
		`queue_depth{node="n2"} 5`,
		`lat_us_sum{route="/x"} 900`,
		`lat_us_count{route="/x"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Buckets must come back in numeric order (20 before 100), +Inf last,
	// with the le label re-spliced after the retained labels.
	i20 := strings.Index(out, `lat_us_bucket{route="/x",le="20"} 1`)
	i100 := strings.Index(out, `lat_us_bucket{route="/x",le="100"} 1`)
	iInf := strings.Index(out, `lat_us_bucket{route="/x",le="+Inf"} 4`)
	if i20 < 0 || i100 < 0 || iInf < 0 || !(i20 < i100 && i100 < iInf) {
		t.Errorf("bucket order wrong (%d %d %d):\n%s", i20, i100, iInf, out)
	}

	// Deterministic: a second render is byte-identical.
	var sb2 strings.Builder
	if err := WritePromFlat(&sb2, flat); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("output not deterministic across renders")
	}
}

func TestWritePromFlatBucketWithoutLeIsGauge(t *testing.T) {
	// A *_bucket name with no le label is not a histogram series; it must
	// not be silently dropped.
	var sb strings.Builder
	if err := WritePromFlat(&sb, map[string]int64{"odd_bucket": 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE odd_bucket gauge") ||
		!strings.Contains(sb.String(), "odd_bucket 1") {
		t.Errorf("le-less bucket handling:\n%s", sb.String())
	}
}

// TestWritePromFlatNameClash: a gauge that shares its name with a
// histogram family renders as a family of its own, whichever of the
// two the snapshot map yields first, instead of panicking or being
// dropped. The cluster aggregate renders names that peers send.
func TestWritePromFlatNameClash(t *testing.T) {
	flat := map[string]int64{"x": 7, `x_bucket{le="1"}`: 1, `x_bucket{le="+Inf"}`: 2, "x_count": 2, "x_sum": 3}
	for range 20 {
		var sb strings.Builder
		if err := WritePromFlat(&sb, flat); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"# TYPE x gauge\nx 7\n", "# TYPE x histogram\n", `x_bucket{le="+Inf"} 2`, "x_count 2"} {
			if !strings.Contains(sb.String(), want) {
				t.Fatalf("output missing %q:\n%s", want, sb.String())
			}
		}
	}
}
