package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds ppclustd and runs every workload briefly, traced and
// replayed, checking that each declared metric comes out finite, that
// the output checks pass and that the traced daemons evicted no trace
// (the run fails if one did).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches daemons")
	}
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "ledger.json")
	traces := filepath.Join(dir, "traces.jsonl")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-seconds", "1", "-seed", "7",
		"-work", dir, "-out", ledgerPath, "-trace-out", traces,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		lw, ok := l.Workloads[wl.name]
		if !ok {
			t.Fatalf("ledger has no %s entry", wl.name)
		}
		if lw.Failed != 0 || lw.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", wl.name, lw.Failed, lw.Attempted)
		}
		for _, set := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range set {
				m, ok := lw.Metrics[d.name]
				if !ok || math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
					t.Errorf("%s: metric %s missing or not finite: %+v", wl.name, d.name, m)
				}
			}
		}
	}
	ring := l.Workloads["ring-mixed"].Metrics
	for _, d := range pathLayer {
		if _, ok := ring[d.name]; !ok {
			t.Errorf("ring-mixed: path metric %s missing", d.name)
		}
	}
	if got := ring["ring.replication_failed"].Median; got != 0 {
		t.Errorf("ring-mixed: %v replication failures", got)
	}
	spans, err := os.ReadFile(traces)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(spans), `"ring.forward"`) {
		t.Error("trace file holds no forwarded ring request")
	}
}
