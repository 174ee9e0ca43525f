// Command ppledger is the benchmark of the ppclustd service: it builds
// the daemon from the working tree, launches real daemon processes on
// free ports, drives closed-loop workloads against them, checks the
// outputs, and reports end-to-end and per-layer metrics.
//
// One workload, as the benchmark contract runs it (the last stdout line
// is the JSON result; every metric is also printed with its unit):
//
//	bash ppledger/run.sh --workload stream-bin --seed 1 --seconds 30 --trace 0
//
// The committed ledger, five traced runs of every workload:
//
//	bash ppledger/run.sh -workload all -runs 5 -seed 1 -out ppledger/BENCH.json
//
// See README.md for the workloads, the metric glossary and how to read
// the ledger and trace files.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppledger:", err)
		os.Exit(1)
	}
}

// errChecksFailed marks a run that completed but saw failed operations
// or failed output checks; its result is still printed.
var errChecksFailed = errors.New("operations or output checks failed")

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ppledger", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: stream-bin, fit-wide, ring-mixed or all")
	seed := fs.Int64("seed", 1, "seed for the generated request bodies")
	seconds := fs.Float64("seconds", 30, "length of the untraced measured phase in seconds (the traced phase runs half as long)")
	trace := fs.Int("trace", 0, "1: add the traced phase and the layer replay, and report per-layer metrics")
	runs := fs.Int("runs", 1, "runs per workload; with -out, the ledger records their median and quartiles")
	out := fs.String("out", "", "write the ledger (implies -trace 1) to this file")
	traceOut := fs.String("trace-out", "", "write every fetched span tree as JSON lines to this file")
	work := fs.String("work", "", "scratch directory for the daemon binary and state (default <root>/.bench_build)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 || *runs < 1 {
		return errors.New("-seconds and -runs must be positive")
	}
	selected := workloads
	if *name != "all" {
		wl, err := workloadByName(*name)
		if err != nil {
			return err
		}
		selected = []*workload{wl}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := findRoot(cwd)
	if err != nil {
		return err
	}
	if *work == "" {
		*work = filepath.Join(root, ".bench_build")
	}
	cfg := &config{
		root:    root,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1 || *out != "",
		nproc:   runtime.NumCPU(),
	}
	cfg.daemonBin = filepath.Join(*work, "bin", "ppclustd")
	if err := buildDaemon(ctx, root, cfg.daemonBin); err != nil {
		return err
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	if cfg.work, err = os.MkdirTemp(*work, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.traceOut = f
	}

	results := map[string][]*runResult{}
	failed := false
	for _, wl := range selected {
		for r := 1; r <= *runs; r++ {
			// A stuck daemon must fail the run, not hang it: a 30 s run,
			// traced, takes about 60 s.
			runCtx, cancel := context.WithTimeout(ctx, 3*cfg.seconds+time.Minute)
			res, err := runOnce(runCtx, cfg, wl)
			cancel()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", wl.name, r, err)
			}
			printRun(stdout, wl, r, *runs, res)
			if res.failed > 0 {
				failed = true
				fmt.Fprintf(os.Stderr, "ppledger: %s run %d: %d of %d operations failed: %v\n",
					wl.name, r, res.failed, res.attempted, res.firstErr)
			}
			results[wl.name] = append(results[wl.name], res)
		}
	}
	if *out != "" {
		if err := writeLedger(*out, cfg, selected, results); err != nil {
			return err
		}
	}
	if len(selected) == 1 && *runs == 1 {
		if err := printContract(stdout, results[selected[0].name][0], *trace == 1); err != nil {
			return err
		}
	}
	if failed {
		return errChecksFailed
	}
	return nil
}

// printRun prints every metric of one run by name, with its unit.
func printRun(w io.Writer, wl *workload, r, runs int, res *runResult) {
	fmt.Fprintf(w, "%s run %d/%d: %d operations, %d failed\n", wl.name, r, runs, res.attempted, res.failed)
	for _, name := range sortedKeys(res.metrics) {
		line := fmt.Sprintf("  %-36s %16.6g %s", name, res.metrics[name], unitOf(name))
		if t, ok := res.tails[name]; ok {
			line += fmt.Sprintf("  (p%g, %d samples beyond; the rule picks p%g)", t.Percentile, t.Beyond, t.Rule)
		}
		fmt.Fprintln(w, line)
	}
}

// contractValue is one metric of the result line.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContract prints the result line: the end-to-end metrics, or with
// tracing the per-layer metrics, exactly as BENCHMARK.json declares them.
func printContract(w io.Writer, res *runResult, traced bool) error {
	set := endToEnd
	if traced {
		set = perLayer
	}
	metrics := map[string]contractValue{}
	for _, d := range set {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = contractValue{Value: v, Unit: d.unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
