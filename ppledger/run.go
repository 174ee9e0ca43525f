package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ppclust/internal/metrics"
)

// setupReps is how many times a run deploys and sets up from scratch;
// setup_s is the median, and the last deployment carries the load.
const setupReps = 3

// maxWarmup is the discarded warm-up before a 30 s phase; shorter phases
// warm up for a sixth of their length.
const maxWarmup = 5 * time.Second

// config is one invocation's settings.
type config struct {
	root      string // the ppclust module root
	work      string // scratch directory for daemon state
	daemonBin string
	seed      int64
	seconds   time.Duration // the untraced measured phase
	trace     bool
	nproc     int
	traceOut  io.Writer // receives traced span trees (nil: discarded)
}

// warmup is the discarded closed-loop warm-up before each phase.
func (cfg *config) warmup() time.Duration { return min(maxWarmup, cfg.seconds/6) }

// tailInfo records which percentile a tail metric reported, how many
// samples lay beyond it, and which percentile the tail rule would pick
// for this run's sample count — when that drifts from the fixed one, the
// fixed table deserves a fresh look.
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"samples_beyond"`
	Rule       float64 `json:"rule_percentile"`
}

func newTailInfo(n int, q float64) tailInfo {
	rule, _ := tailPercentile(n)
	return tailInfo{Percentile: q, Beyond: beyond(n, q), Rule: rule}
}

// runResult is one run of one workload.
type runResult struct {
	metrics   map[string]float64
	tails     map[string]tailInfo
	attempted int
	failed    int
	firstErr  error // the first failed operation or check, if any
	// untracedStarts are the start offsets of the untraced phase's
	// successful operations. Over the traced phase's length they give its
	// baseline rate, equal in duration and in how far the deployment's
	// state has grown.
	untracedStarts []time.Duration
}

func (r *runResult) note(failed int, err error) {
	r.failed += failed
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// runOnce measures one workload: repeated set-ups, a warm-up, the
// untraced phase and its checks, then (when tracing) a traced phase on a
// fresh deployment and the in-process replay.
func runOnce(ctx context.Context, cfg *config, wl *workload) (*runResult, error) {
	in, err := wl.generate(cfg.seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: map[string]float64{}, tails: map[string]tailInfo{}}

	var setups []float64
	var dep *deployment
	for r := 0; r < setupReps; r++ {
		d, secs, err := deploy(ctx, cfg, wl, in, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if r < setupReps-1 {
			d.close()
		} else {
			dep = d
		}
	}
	defer dep.close()
	res.metrics["setup_s"] = median(setups)

	dep.runPhase(ctx, cfg.warmup(), false, 0)
	before, err := dep.metrics(ctx)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuSeconds()
	rss := dep.watchRSS(100 * time.Millisecond)
	p := dep.runPhase(ctx, cfg.seconds, false, 0)
	res.metrics["rss_mb"] = rss()
	cpu := cpuSeconds() - cpu0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if wl.nodes > 1 {
		if err := dep.awaitReplication(ctx); err != nil {
			return nil, err
		}
	}
	after, err := dep.metrics(ctx)
	if err != nil {
		return nil, err
	}
	if res.metrics["peak_rss_mb"], err = dep.memoryMB("VmHWM"); err != nil {
		return nil, err
	}
	res.attempted += len(p.samples)
	res.note(opFailures(p))
	res.note(dep.check(p, cfg.seed))
	phaseMetrics(wl, p, res)
	served(wl, p, before, after, res.metrics)
	res.metrics["driver.cpu_share"] = cpu / (p.elapsed.Seconds() * float64(cfg.nproc))
	for _, s := range p.samples {
		if s.err == nil {
			res.untracedStarts = append(res.untracedStarts, s.start.Sub(p.start))
		}
	}
	dep.close()

	if cfg.trace {
		if err := tracedPass(ctx, cfg, wl, in, res); err != nil {
			return nil, err
		}
		layers, err := replay(cfg, wl, in)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		for k, v := range layers {
			res.metrics[k] = v
		}
	}
	return res, nil
}

// tracedPass reruns the workload on daemons that keep every trace, for
// half the untraced phase or tracedRequests requests, whichever comes
// first, and reduces the traces to per-layer times.
func tracedPass(ctx context.Context, cfg *config, wl *workload, in []ownerInputs, res *runResult) error {
	dep, _, err := deploy(ctx, cfg, wl, in, true)
	if err != nil {
		return err
	}
	defer dep.close()
	dep.runPhase(ctx, cfg.warmup(), true, tracedWarmupRequests)
	p := dep.runPhase(ctx, cfg.seconds/2, true, tracedRequests)
	if err := ctx.Err(); err != nil {
		return err
	}
	res.attempted += len(p.samples)
	res.note(opFailures(p))
	res.note(dep.check(p, cfg.seed))
	traces, err := dep.fetchTraces(ctx, p)
	if err != nil {
		return err
	}
	snaps, err := dep.metrics(ctx)
	if err != nil {
		return err
	}
	for i, snap := range snaps {
		if n := snap["obs_trace_store_evictions_total"]; n != 0 {
			return fmt.Errorf("node %d evicted %d traces; the traced phase's layer times would be incomplete", i+1, n)
		}
	}
	for k, v := range traceLayers(traces) {
		res.metrics[k] = v
	}
	var n int
	for _, at := range res.untracedStarts {
		if at < p.elapsed {
			n++
		}
	}
	untraced := float64(n) / p.elapsed.Seconds()
	res.metrics["obs.trace_overhead_pct"] = (untraced - okCount(p)/p.elapsed.Seconds()) / untraced * 100
	if cfg.traceOut != nil {
		enc := json.NewEncoder(cfg.traceOut)
		for _, t := range traces {
			if err := enc.Encode(traceRecord{Workload: wl.name, Op: t.s.op, Owner: t.s.owner, Spans: t.tree}); err != nil {
				return fmt.Errorf("writing traces: %w", err)
			}
		}
	}
	return nil
}

// opFailures counts the phase's failed operations.
func opFailures(p phase) (n int, first error) {
	for _, s := range p.samples {
		if s.err != nil {
			n++
			if first == nil {
				first = s.err
			}
		}
	}
	return n, first
}

func okCount(p phase) float64 {
	n := 0
	for _, s := range p.samples {
		if s.err == nil {
			n++
		}
	}
	return float64(n)
}

// phaseMetrics derives the client-side metrics of the untraced phase:
// throughput, latency percentiles, the per-operation pairs of the ledger,
// wire bytes and the cluster jobs' own stage timings.
func phaseMetrics(wl *workload, p phase, res *runResult) {
	m := res.metrics
	secs := p.elapsed.Seconds()
	var all []float64
	byOp := map[opKind][]float64{}
	var rows int
	var out, in int64
	jobStages := map[string][]float64{}
	for _, s := range p.samples {
		out += s.out
		in += s.in
		if s.err != nil {
			continue
		}
		ms := float64(s.dur.Nanoseconds()) / 1e6
		all = append(all, ms)
		byOp[s.op] = append(byOp[s.op], ms)
		rows += s.rows
		if s.job != nil {
			for _, st := range s.job.Timeline {
				jobStages[st.Name] = append(jobStages[st.Name], st.DurationMs)
			}
		}
	}
	n := float64(len(p.samples))
	m["ops_per_s"] = float64(len(all)) / secs
	m["rows_per_s"] = float64(rows) / secs
	m["error_rate"] = float64(res.failed) / n
	m["wire.bytes_out_per_op"] = float64(out) / n
	m["wire.bytes_in_per_op"] = float64(in) / n
	sort.Float64s(all)
	m["p50_ms"] = percentile(all, 50)
	m["tail_ms"] = percentile(all, wl.tail)
	res.tails["tail_ms"] = newTailInfo(len(all), wl.tail)
	for _, op := range ledgerOps {
		lat, ok := byOp[op]
		if !ok {
			continue
		}
		sort.Float64s(lat)
		q := wl.opTail[op]
		m[string(op)+"_p50_ms"] = percentile(lat, 50)
		m[string(op)+"_tail_ms"] = percentile(lat, q)
		res.tails[string(op)+"_tail_ms"] = newTailInfo(len(lat), q)
	}
	for stage, name := range map[string]string{
		"queued":    "jobs.queue_wait_ms",
		"running":   "jobs.run_ms",
		"store.get": "datastore.get_ms",
		"cluster":   "cluster.kmeans_ms",
	} {
		if v, ok := jobStages[stage]; ok {
			m[name] = mean(v)
		}
	}
}

// served derives the ring and datastore metrics from the daemons'
// counters over the untraced phase.
func served(wl *workload, p phase, before, after []map[string]int64, m map[string]float64) {
	delta := func(key string) float64 {
		var d int64
		for i := range after {
			d += after[i][key] - before[i][key]
		}
		return float64(d)
	}
	var requests, writes float64
	for _, s := range p.samples {
		requests += float64(s.requests)
		if s.err == nil && (s.op == opUpload || s.op == opDelete || s.op == opFit) {
			writes++
		}
	}
	m["ring.forward_share"] = delta("ring_forwards_total") / requests
	m["ring.replication_per_write"] = 0
	if writes > 0 {
		m["ring.replication_per_write"] = delta("ring_replication_shipped_total") / writes
	}
	m["ring.replication_failed"] = delta("ring_replication_errors_total") + delta("ring_replication_dropped_total")
	m["datastore.cache_hit_ratio"] = 0
	hits, misses := delta("datastore_cache_hits_total"), delta("datastore_cache_misses_total")
	if hits+misses > 0 {
		m["datastore.cache_hit_ratio"] = hits / (hits + misses)
	}
	if wl.nodes > 1 {
		if q := metrics.QuantileFromBuckets(lagBuckets(before, after), 0.99); !math.IsNaN(q) {
			m["ring.replication_lag_p99_ms"] = q / 1e3
		}
	}
}

// lagBuckets sums the replication-lag histogram's bucket deltas over the
// nodes, in ascending bound order.
func lagBuckets(before, after []map[string]int64) []metrics.BucketCount {
	const prefix = `ring_replication_lag_us_bucket{le="`
	counts := map[float64]int64{}
	for i := range after {
		for k, v := range after[i] {
			le, ok := strings.CutPrefix(k, prefix)
			if !ok {
				continue
			}
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err != nil {
				continue
			}
			counts[bound] += v - before[i][k]
		}
	}
	out := make([]metrics.BucketCount, 0, len(counts))
	for b, c := range counts {
		out = append(out, metrics.BucketCount{UpperBound: b, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UpperBound < out[j].UpperBound })
	return out
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "ppledger: getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
