package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// ledger is the committed record of a set of runs: for every workload
// and metric, the median and quartiles across the runs, plus what the
// numbers were measured on.
type ledger struct {
	// Claim is always null: the ledger records measurements and claims
	// no gain.
	Claim     any                       `json:"claim"`
	Commit    string                    `json:"commit"`
	Nproc     int                       `json:"nproc"`
	CPU       string                    `json:"cpu"`
	Go        string                    `json:"go"`
	Seed      int64                     `json:"seed"`
	Runs      int                       `json:"runs"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]ledgerMetric `json:"metrics"`
	// Tails gives each tail metric's fixed percentile, the median number
	// of samples beyond it, and the rule's pick for the last run.
	Tails map[string]tailInfo `json:"tails"`
}

type ledgerMetric struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func writeLedger(path string, cfg *config, selected []*workload, results map[string][]*runResult) error {
	l := ledger{
		Commit:    commitOf(cfg.root),
		Nproc:     cfg.nproc,
		CPU:       cpuModel(),
		Go:        runtime.Version(),
		Seed:      cfg.seed,
		Seconds:   cfg.seconds.Seconds(),
		Workloads: map[string]ledgerWorkload{},
	}
	for _, wl := range selected {
		runs := results[wl.name]
		l.Runs = len(runs)
		lw := ledgerWorkload{Metrics: map[string]ledgerMetric{}, Tails: map[string]tailInfo{}}
		vals := map[string][]float64{}
		beyonds := map[string][]float64{}
		for _, r := range runs {
			lw.Attempted += r.attempted
			lw.Failed += r.failed
			for k, v := range r.metrics {
				vals[k] = append(vals[k], v)
			}
			for k, t := range r.tails {
				lw.Tails[k] = t
				beyonds[k] = append(beyonds[k], float64(t.Beyond))
			}
		}
		for k, v := range vals {
			q1, med, q3 := quartiles(v)
			lw.Metrics[k] = ledgerMetric{Unit: unitOf(k), Median: med, Q1: q1, Q3: q3}
		}
		for k, t := range lw.Tails {
			t.Beyond = int(math.Round(median(beyonds[k])))
			lw.Tails[k] = t
		}
		l.Workloads[wl.name] = lw
	}
	raw, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// commitOf names the commit the measured tree is at, or "unknown" outside
// a git checkout.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the processor model from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
