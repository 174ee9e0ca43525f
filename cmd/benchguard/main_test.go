package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDoc(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGuardRatios(t *testing.T) {
	dir := t.TempDir()
	baseline := writeDoc(t, dir, "base.json", `{"benchmarks":[
		{"name":"BenchmarkX/slow","ns_per_op":300},
		{"name":"BenchmarkX/fast","ns_per_op":100}]}`)
	// Same 3.0x speedup: passes.
	same := writeDoc(t, dir, "same.json", `{"benchmarks":[
		{"name":"BenchmarkX/slow","ns_per_op":600},
		{"name":"BenchmarkX/fast","ns_per_op":200}]}`)
	// Speedup collapsed to 1.5x: a >15% regression.
	worse := writeDoc(t, dir, "worse.json", `{"benchmarks":[
		{"name":"BenchmarkX/slow","ns_per_op":300},
		{"name":"BenchmarkX/fast","ns_per_op":200}]}`)
	// 2.7x is a 10% drop: inside the default tolerance.
	drift := writeDoc(t, dir, "drift.json", `{"benchmarks":[
		{"name":"BenchmarkX/slow","ns_per_op":270},
		{"name":"BenchmarkX/fast","ns_per_op":100}]}`)

	args := func(current string) []string {
		return []string{"-baseline", baseline, "-current", current,
			"-ratio", "BenchmarkX/slow:BenchmarkX/fast"}
	}
	var out bytes.Buffer
	if err := run(args(same), &out); err != nil {
		t.Fatalf("identical ratio failed: %v", err)
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("output = %q", out.String())
	}
	if err := run(args(drift), &out); err != nil {
		t.Fatalf("10%% drift within 15%% tolerance failed: %v", err)
	}
	err := run(args(worse), &out)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("collapsed speedup passed: %v", err)
	}
	// A machine 2x slower overall (both benches scale) still passes:
	// the guard is ratio-normalized.
	if err := run(args(same), &out); err != nil {
		t.Fatal(err)
	}

	// Tighter tolerance flips the drift case to a failure.
	if err := run(append(args(drift), "-tolerance", "0.05"), &out); err == nil {
		t.Fatal("5% tolerance accepted a 10% drop")
	}

	// Missing benchmarks and malformed specs are errors, not passes.
	if err := run([]string{"-baseline", baseline, "-current", same,
		"-ratio", "BenchmarkX/slow:BenchmarkMissing"}, &out); err == nil {
		t.Fatal("missing benchmark accepted")
	}
	if err := run([]string{"-baseline", baseline, "-current", same,
		"-ratio", "nocolon"}, &out); err == nil {
		t.Fatal("malformed -ratio accepted")
	}
	if err := run(nil, &out); err == nil {
		t.Fatal("no flags accepted")
	}

	// Repeated entries (-count 3) are judged by their median, not by the
	// last one: the baseline's medians are 300 and 100 (3.0x) although
	// its last entries give 1.5x, and the current run's medians give
	// 2.0x although its last entries give 3.0x. By medians the current
	// run regressed; by last entries it would have doubled.
	repBase := writeDoc(t, dir, "rep-base.json", `{"benchmarks":[
		{"name":"BenchmarkX/slow","ns_per_op":310},
		{"name":"BenchmarkX/slow","ns_per_op":300},
		{"name":"BenchmarkX/slow","ns_per_op":150},
		{"name":"BenchmarkX/fast","ns_per_op":90},
		{"name":"BenchmarkX/fast","ns_per_op":100},
		{"name":"BenchmarkX/fast","ns_per_op":100}]}`)
	repCur := writeDoc(t, dir, "rep-cur.json", `{"benchmarks":[
		{"name":"BenchmarkX/slow","ns_per_op":200},
		{"name":"BenchmarkX/slow","ns_per_op":200},
		{"name":"BenchmarkX/slow","ns_per_op":300},
		{"name":"BenchmarkX/fast","ns_per_op":100},
		{"name":"BenchmarkX/fast","ns_per_op":110},
		{"name":"BenchmarkX/fast","ns_per_op":100}]}`)
	out.Reset()
	err = run([]string{"-baseline", repBase, "-current", repCur,
		"-ratio", "BenchmarkX/slow:BenchmarkX/fast"}, &out)
	if err == nil || !strings.Contains(out.String(), "baseline 3.00x, current 2.00x") {
		t.Fatalf("medians of repeated entries: err %v, output %q", err, out.String())
	}
	if err := run([]string{"-baseline", repBase, "-current", repBase,
		"-ratio", "BenchmarkX/slow:BenchmarkX/fast"}, &out); err != nil {
		t.Fatalf("a baseline failed against itself: %v", err)
	}
	// An even count takes the mean of the middle two.
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
}
