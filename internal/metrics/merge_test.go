package metrics

// Cluster snapshot merge unit tests: counters and histogram series sum
// across nodes, gauges get node labels, and the label helpers behave on
// quoted values containing commas.

import (
	"reflect"
	"testing"
)

func TestMergeSnapshotsSumsAndLabels(t *testing.T) {
	perNode := map[string]map[string]int64{
		"n1": {
			"rows_ingested_total":                          10,
			`http_requests_total{route="/x",status="200"}`: 3,
			`lat_us_bucket{route="/x",le="100"}`:           2,
			`lat_us_bucket{route="/x",le="+Inf"}`:          5,
			`lat_us_count{route="/x"}`:                     5,
			`lat_us_sum{route="/x"}`:                       400,
			"queue_depth":                                  3,
		},
		"n2": {
			"rows_ingested_total":                 7,
			`lat_us_bucket{route="/x",le="100"}`:  1,
			`lat_us_bucket{route="/x",le="+Inf"}`: 1,
			`lat_us_count{route="/x"}`:            1,
			`lat_us_sum{route="/x"}`:              50,
			"queue_depth":                         5,
		},
	}
	got := MergeSnapshots(perNode)

	if got["rows_ingested_total"] != 17 {
		t.Errorf("counter sum = %d, want 17", got["rows_ingested_total"])
	}
	if got[`http_requests_total{route="/x",status="200"}`] != 3 {
		t.Errorf("single-node counter = %d, want 3", got[`http_requests_total{route="/x",status="200"}`])
	}
	if got[`lat_us_bucket{route="/x",le="100"}`] != 3 ||
		got[`lat_us_bucket{route="/x",le="+Inf"}`] != 6 {
		t.Errorf("histogram buckets not summed: %v", got)
	}
	if got[`lat_us_count{route="/x"}`] != 6 || got[`lat_us_sum{route="/x"}`] != 450 {
		t.Errorf("histogram count/sum not summed: %v", got)
	}
	// Gauges are node-labelled, never summed.
	if got[`queue_depth{node="n1"}`] != 3 || got[`queue_depth{node="n2"}`] != 5 {
		t.Errorf("gauges not node-labelled: %v", got)
	}
	if _, ok := got["queue_depth"]; ok {
		t.Error("bare gauge must not survive the merge")
	}
}

func TestMergeSnapshotsBareCountIsGauge(t *testing.T) {
	// A *_count with no histogram family in sight is a gauge, not a
	// summed series.
	got := MergeSnapshots(map[string]map[string]int64{
		"n1": {"goroutine_count": 10},
		"n2": {"goroutine_count": 20},
	})
	if got[`goroutine_count{node="n1"}`] != 10 || got[`goroutine_count{node="n2"}`] != 20 {
		t.Errorf("family-less _count must be node-labelled: %v", got)
	}
}

func TestMergeSnapshotsDoesNotMutateInputs(t *testing.T) {
	snap := map[string]int64{"rows_ingested_total": 1, "queue_depth": 2}
	MergeSnapshots(map[string]map[string]int64{"n1": snap})
	if !reflect.DeepEqual(snap, map[string]int64{"rows_ingested_total": 1, "queue_depth": 2}) {
		t.Errorf("input snapshot mutated: %v", snap)
	}
}

func TestWithNodeLabel(t *testing.T) {
	if got := WithNodeLabel("queue_depth", "n1"); got != `queue_depth{node="n1"}` {
		t.Errorf("bare name: %q", got)
	}
	if got := WithNodeLabel(`x{a="b"}`, "n2"); got != `x{a="b",node="n2"}` {
		t.Errorf("labelled name: %q", got)
	}
}

func TestSplitLabelBodyAndLabelValue(t *testing.T) {
	parts := SplitLabelBody(`a="x",b="y,z",c="w"`)
	if !reflect.DeepEqual(parts, []string{`a="x"`, `b="y,z"`, `c="w"`}) {
		t.Errorf("quoted comma split: %v", parts)
	}
	if SplitLabelBody("") != nil {
		t.Error("empty body must split to nil")
	}
	v, rest, ok := LabelValue(`route="/x",le="100"`, "le")
	if !ok || v != "100" || rest != `route="/x"` {
		t.Errorf("LabelValue = %q %q %v", v, rest, ok)
	}
	if _, _, ok := LabelValue(`route="/x"`, "le"); ok {
		t.Error("missing key must report !ok")
	}
}
