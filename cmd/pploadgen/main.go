// Command pploadgen is a closed-loop load harness for ppclustd: a fixed
// pool of workers drives a weighted mix of upload, protect and cluster
// operations against one or more nodes and reports per-operation latency
// percentiles (p50/p95/p99) and error rate as JSON on stdout.
//
// Closed-loop means each worker issues its next request only after the
// previous one completed, so concurrency — not offered rate — is the
// controlled variable, and the measured throughput is what the cluster
// actually sustained. That makes single-node versus 3-node comparisons
// measurements instead of assertions:
//
//	pploadgen -addrs http://n1:8080 -requests 500 > single.json
//	pploadgen -addrs http://n1:8080,http://n2:8080,http://n3:8080 \
//	          -requests 500 > ring.json
//
// Each owner is pinned round-robin to one entry node; with a ring behind
// the addresses the daemons forward to the owners' home nodes
// themselves, so the harness needs no placement knowledge.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/codec"
	"ppclust/internal/dataset"
	"ppclust/internal/obs"
	"ppclust/ppclient"
)

type opKind string

const (
	opUpload  opKind = "upload"
	opProtect opKind = "protect"
	opCluster opKind = "cluster"
)

// parseMix expands a weighted "upload=2,protect=1,cluster=1" spec into
// the deterministic cycle the workers step through, so any two runs
// with the same flags issue the same operation sequence.
func parseMix(s string) ([]opKind, error) {
	var cycle []opKind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, "=")
		w := 1
		if ok {
			var err error
			if w, err = strconv.Atoi(wstr); err != nil || w < 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
		}
		kind := opKind(strings.TrimSpace(name))
		switch kind {
		case opUpload, opProtect, opCluster:
		default:
			return nil, fmt.Errorf("unknown mix operation %q (want upload, protect or cluster)", name)
		}
		for i := 0; i < w; i++ {
			cycle = append(cycle, kind)
		}
	}
	if len(cycle) == 0 {
		return nil, fmt.Errorf("mix %q selects no operations", s)
	}
	return cycle, nil
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// an ascending-sorted sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

type opStats struct {
	Count  int     `json:"count"`
	Errors int     `json:"errors"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// BytesOutPerOp/BytesInPerOp are the mean request and response body
	// bytes per operation — what -wire=binary vs -wire=csv actually
	// changes on the wire. Counted on the raw-HTTP ops (upload, protect);
	// zero for the JSON job flow.
	BytesOutPerOp float64 `json:"bytes_out_per_op,omitempty"`
	BytesInPerOp  float64 `json:"bytes_in_per_op,omitempty"`
	// Slowest quotes the trace IDs of the operation's slowest requests:
	// the handle that joins a latency tail seen here to the span trees in
	// the daemons' logs (run them with -slow-ms to capture those).
	Slowest []slowSample `json:"slowest,omitempty"`
}

// slowSample is one tail-latency request, identified by its trace ID.
// TraceURL is ready to curl: the entry node's GET /v1/traces/{id},
// which returns the retained span tree stitched across the ring.
type slowSample struct {
	TraceID  string  `json:"trace_id"`
	Ms       float64 `json:"ms"`
	TraceURL string  `json:"trace_url,omitempty"`
}

// slowestCount is how many tail samples each op quotes in the report.
const slowestCount = 5

// sloResult is one objective evaluated over the run's exact samples —
// the same burn model the daemon's rolling window uses, but with no
// sampling error because the harness holds every observation.
type sloResult struct {
	Objective string  `json:"objective"`
	Requests  int64   `json:"requests"`
	Bad       int64   `json:"bad"`
	Budget    float64 `json:"budget"`
	BurnRate  float64 `json:"burn_rate"`
	State     string  `json:"state"`
}

type loadReport struct {
	Nodes       []string           `json:"nodes"`
	Owners      int                `json:"owners"`
	Concurrency int                `json:"concurrency"`
	Requests    int                `json:"requests"`
	Rows        int                `json:"rows"`
	Mix         string             `json:"mix"`
	Wire        string             `json:"wire,omitempty"`
	ElapsedS    float64            `json:"elapsed_s"`
	Throughput  float64            `json:"throughput_rps"`
	ErrorRate   float64            `json:"error_rate"`
	Ops         map[string]opStats `json:"ops"`
	SLOStatus   string             `json:"slo_status,omitempty"`
	SLO         []sloResult        `json:"slo,omitempty"`
	// AlertsSeen lists the alerts the -watch-alerts poller saw firing on
	// the cluster while the run was in flight.
	AlertsSeen []watchedAlert `json:"alerts_seen,omitempty"`
}

// watchedAlert is one alert observed in the firing state during a
// -watch-alerts run, deduplicated by rule, node and series.
type watchedAlert struct {
	Rule    string    `json:"rule"`
	Node    string    `json:"node,omitempty"`
	Series  string    `json:"series,omitempty"`
	FiredAt time.Time `json:"fired_at,omitzero"`
}

type sample struct {
	op    opKind
	ms    float64
	err   bool
	trace string
	node  string
	out   int64 // request body bytes on the wire
	in    int64 // response body bytes on the wire
}

// owner is one load identity: a ppclient pinned to its entry node plus
// the bearer token minted during setup, reused by the raw protect path.
type owner struct {
	name   string
	base   string
	client *ppclient.Client
	http   *http.Client
}

type harness struct {
	owners []owner
	csv    []byte // the dataset as CSV, for setup
	mix    []opKind
	next   atomic.Int64

	// wire is the -wire value the report names ("csv", "json" or
	// "ndjson", "binary"), format its table entry: the measured
	// upload/protect ops send body, the dataset pre-rendered in it.
	wire   string
	format *codec.Format
	body   []byte

	mu      sync.Mutex
	samples []sample
}

func (h *harness) record(op opKind, trace, node string, start time.Time, out, in int64, err error) {
	s := sample{op: op, ms: float64(time.Since(start).Microseconds()) / 1000, err: err != nil,
		trace: trace, node: node, out: out, in: in}
	h.mu.Lock()
	h.samples = append(h.samples, s)
	h.mu.Unlock()
}

func (h *harness) worker(ctx context.Context, requests int) {
	for {
		i := h.next.Add(1)
		if i > int64(requests) || ctx.Err() != nil {
			return
		}
		o := &h.owners[int(i)%len(h.owners)]
		op := h.mix[int(i)%len(h.mix)]
		// Each operation mints its trace ID client-side and pins it on the
		// context, so the daemon adopts it and the report can quote the IDs
		// of the slowest requests without parsing responses.
		trace := obs.NewTraceID()
		opCtx := ppclient.WithTraceID(ctx, trace)
		start := time.Now()
		var err error
		var out, in int64
		switch op {
		case opUpload:
			out, in, err = o.uploadRaw(opCtx, trace, fmt.Sprintf("lg%d", i), h)
		case opProtect:
			out, in, err = o.protectStream(opCtx, trace, h)
		case opCluster:
			err = o.clusterJob(opCtx)
		}
		h.record(op, trace, o.client.BaseURL, start, out, in, err)
	}
}

// rawPost issues one measured request in the harness's wire format and
// returns the body bytes that crossed the wire in each direction — the
// raw-HTTP twin of the ppclient calls, kept raw exactly so those counts
// are the request's, not an SDK's.
func (o *owner) rawPost(ctx context.Context, trace, u string, h *harness) (out, in int64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(h.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", h.format.ContentType)
	req.Header.Set(ppclient.TraceHeader, trace)
	if o.client.Token != "" {
		req.Header.Set("Authorization", "Bearer "+o.client.Token)
	}
	resp, err := o.http.Do(req)
	if err != nil {
		return int64(len(h.body)), 0, err
	}
	defer resp.Body.Close()
	in, err = io.Copy(io.Discard, resp.Body)
	out = int64(len(h.body))
	if err != nil {
		return out, in, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return out, in, fmt.Errorf("status %d", resp.StatusCode)
	}
	return out, in, nil
}

// uploadRaw stores the shared payload as a fresh dataset under name.
func (o *owner) uploadRaw(ctx context.Context, trace, name string, h *harness) (out, in int64, err error) {
	u := strings.TrimRight(o.client.BaseURL, "/") + "/v1/datasets?name=" + name +
		"&owner=" + o.name + "&format=" + h.format.Name
	out, in, err = o.rawPost(ctx, trace, u, h)
	if err != nil {
		return out, in, fmt.Errorf("upload: %w", err)
	}
	return out, in, nil
}

// protectStream pushes the payload through the owner's frozen key — the
// steady-state protect path, which neither rotates keys nor grows the
// keyring under load. The response streams back in the same format.
func (o *owner) protectStream(ctx context.Context, trace string, h *harness) (out, in int64, err error) {
	u := strings.TrimRight(o.client.BaseURL, "/") + "/v1/protect?mode=stream&owner=" + o.name +
		"&format=" + h.format.Name
	out, in, err = o.rawPost(ctx, trace, u, h)
	if err != nil {
		return out, in, fmt.Errorf("protect: %w", err)
	}
	return out, in, nil
}

// clusterJob runs one full cluster job — submit, poll, fetch result —
// as a single closed-loop operation.
func (o *owner) clusterJob(ctx context.Context) error {
	st, err := o.client.SubmitJob(ctx, map[string]any{"type": "cluster", "dataset": o.base, "k": 3})
	if err != nil {
		return err
	}
	done, err := o.client.WaitJob(ctx, st.ID, nil)
	if err != nil {
		return err
	}
	if done.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", st.ID, done.State, done.Error)
	}
	if _, err := o.client.JobResult(ctx, st.ID, nil); err != nil {
		return err
	}
	return nil
}

// setup claims every owner (base dataset upload mints the token) and
// fits its protect key once, so the measured loop never pays one-time
// costs.
func (h *harness) setup(ctx context.Context) error {
	for i := range h.owners {
		o := &h.owners[i]
		if _, err := o.client.UploadDatasetCSV(ctx, o.base, bytes.NewReader(h.csv), false); err != nil {
			return fmt.Errorf("seeding %s: %w", o.name, err)
		}
		u := strings.TrimRight(o.client.BaseURL, "/") + "/v1/protect?owner=" + o.name + "&seed=1"
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(h.csv))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", codec.CSV.ContentType)
		req.Header.Set("Authorization", "Bearer "+o.client.Token)
		resp, err := o.http.Do(req)
		if err != nil {
			return fmt.Errorf("fitting %s: %w", o.name, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fitting %s: status %d", o.name, resp.StatusCode)
		}
	}
	return nil
}

// slowest returns the trace IDs of the op's slowest requests, slowest
// first — the handles an operator greps for in the daemons' slow logs.
func slowest(samples []sample) []slowSample {
	sorted := append([]sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ms > sorted[j].ms })
	if len(sorted) > slowestCount {
		sorted = sorted[:slowestCount]
	}
	out := make([]slowSample, 0, len(sorted))
	for _, s := range sorted {
		ss := slowSample{TraceID: s.trace, Ms: s.ms}
		if s.node != "" {
			ss.TraceURL = s.node + "/v1/traces/" + s.trace
		}
		out = append(out, ss)
	}
	return out
}

// evalSLO evaluates the parsed objectives over the run's samples.
// Objectives match operations by substring the same way the daemon
// matches routes, so 'protect:p99<250ms' gates the protect op here and
// the protect route there.
func (h *harness) evalSLO(objectives []obs.Objective) (results []sloResult, worst string) {
	worst = obs.SLOStateOK
	for _, o := range objectives {
		var total, bad int64
		for _, s := range h.samples {
			if !o.Matches(string(s.op)) {
				continue
			}
			total++
			if o.Bad(s.ms, s.err) {
				bad++
			}
		}
		burn, state := obs.EvalBudget(total, bad, o.Budget())
		results = append(results, sloResult{
			Objective: o.Name(),
			Requests:  total,
			Bad:       bad,
			Budget:    o.Budget(),
			BurnRate:  burn,
			State:     state,
		})
		worst = obs.WorseSLOState(worst, state)
	}
	return results, worst
}

func (h *harness) report(nodes []string, concurrency, requests, rows int, mixSpec string, elapsed time.Duration) loadReport {
	byOp := map[opKind][]float64{}
	bySample := map[opKind][]sample{}
	errs := map[opKind]int{}
	for _, s := range h.samples {
		byOp[s.op] = append(byOp[s.op], s.ms)
		bySample[s.op] = append(bySample[s.op], s)
		if s.err {
			errs[s.op]++
		}
	}
	rep := loadReport{
		Nodes:       nodes,
		Owners:      len(h.owners),
		Concurrency: concurrency,
		Requests:    requests,
		Rows:        rows,
		Mix:         mixSpec,
		Wire:        h.wire,
		ElapsedS:    elapsed.Seconds(),
		Ops:         map[string]opStats{},
	}
	totalErrs := 0
	for op, ms := range byOp {
		sort.Float64s(ms)
		mean := 0.0
		for _, v := range ms {
			mean += v
		}
		mean /= float64(len(ms))
		var out, in int64
		for _, s := range bySample[op] {
			out += s.out
			in += s.in
		}
		n := float64(len(ms))
		rep.Ops[string(op)] = opStats{
			Count:         len(ms),
			Errors:        errs[op],
			MeanMs:        mean,
			P50Ms:         percentile(ms, 50),
			P95Ms:         percentile(ms, 95),
			P99Ms:         percentile(ms, 99),
			BytesOutPerOp: float64(out) / n,
			BytesInPerOp:  float64(in) / n,
			Slowest:       slowest(bySample[op]),
		}
		totalErrs += errs[op]
	}
	if n := len(h.samples); n > 0 {
		rep.Throughput = float64(n) / elapsed.Seconds()
		rep.ErrorRate = float64(totalErrs) / float64(n)
	}
	return rep
}

// render writes the synthetic dataset once in format f; every request
// that carries it reuses the bytes, so the report's bytes-on-wire columns
// compare formats over identical data.
func render(f *codec.Format, ds *dataset.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	w := f.NewWriter(&buf)
	if err := w.WriteHeader(ds.Names, false); err != nil {
		return nil, err
	}
	if err := w.WriteBatch(ds.Data, nil); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pploadgen", flag.ContinueOnError)
	addrs := fs.String("addrs", "http://localhost:8080", "comma-separated ppclustd base URLs; owners are pinned round-robin")
	nOwners := fs.Int("owners", 4, "distinct data owners generating load")
	concurrency := fs.Int("concurrency", 8, "closed-loop workers")
	requests := fs.Int("requests", 100, "total operations to issue")
	rows := fs.Int("rows", 256, "rows per generated dataset")
	seed := fs.Int64("seed", 1, "synthetic data seed")
	mixSpec := fs.String("mix", "upload=1,protect=1,cluster=1", "weighted operation mix")
	wire := fs.String("wire", "csv", "row wire format for upload/protect bodies: csv, json (NDJSON) or binary")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall deadline")
	sloSpec := fs.String("slo", "", "objective the run must meet, e.g. 'protect:p99<250ms,err<0.5%'; a breach makes the run exit non-zero")
	outFile := fs.String("out", "", "also write the JSON report to this file")
	watch := fs.Bool("watch-alerts", false, "poll the cluster's /v1/alerts during the run and list alerts that fired in the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}
	objectives, err := obs.ParseSLO(*sloSpec)
	if err != nil {
		return err
	}
	if *nOwners < 1 || *concurrency < 1 || *requests < 1 {
		return fmt.Errorf("owners, concurrency and requests must be positive")
	}

	ds, err := dataset.SyntheticPatients(*rows, 3, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	ds = ds.DropIDs()
	ds.Labels = nil
	name := *wire
	if name == "json" {
		name = codec.NDJSON.Name // -wire json is an alias
	}
	format, err := codec.Lookup(name)
	if err != nil {
		return fmt.Errorf("-wire: %w", err)
	}
	csvBody, err := render(codec.CSV, ds)
	if err != nil {
		return err
	}
	body, err := render(format, ds)
	if err != nil {
		return err
	}

	nodes := strings.Split(*addrs, ",")
	for i := range nodes {
		nodes[i] = strings.TrimRight(strings.TrimSpace(nodes[i]), "/")
	}
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * *concurrency,
		MaxIdleConnsPerHost: 2 * *concurrency,
	}}
	h := &harness{csv: csvBody, mix: mix, wire: *wire, format: format, body: body}
	for i := 0; i < *nOwners; i++ {
		cl := ppclient.New(nodes[i%len(nodes)], fmt.Sprintf("loadgen-%d", i))
		cl.HTTPClient = httpc
		h.owners = append(h.owners, owner{
			name:   cl.Owner,
			base:   "base",
			client: cl,
			http:   httpc,
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := h.setup(ctx); err != nil {
		return err
	}

	var watcher *alertWatcher
	if *watch {
		watcher = watchAlerts(ctx, h.owners[0].client, time.Second)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.worker(ctx, *requests)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "pploadgen: deadline hit after %d/%d operations\n", len(h.samples), *requests)
	}

	rep := h.report(nodes, *concurrency, *requests, *rows, *mixSpec, elapsed)
	if len(objectives) > 0 {
		rep.SLO, rep.SLOStatus = h.evalSLO(objectives)
	}
	if watcher != nil {
		rep.AlertsSeen = watcher.stop(ctx, h.owners[0].client)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if _, err := stdout.Write(raw); err != nil {
		return err
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, raw, 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	// The CI gate: the full report is already on stdout, the breach
	// summary goes to stderr with the non-zero exit.
	if rep.SLOStatus == obs.SLOStateBreach {
		var breached []string
		for _, r := range rep.SLO {
			if r.State == obs.SLOStateBreach {
				breached = append(breached, fmt.Sprintf("%s (burn %.2f)", r.Objective, r.BurnRate))
			}
		}
		return fmt.Errorf("%w: %s", errSLOBreach, strings.Join(breached, ", "))
	}
	return nil
}

// alertWatcher polls the entry node's cluster-wide alert listing while
// the workers run, so a load run doubles as an alerting smoke test: the
// report shows which rules the load it generated actually tripped. Poll
// errors are ignored — a daemon without alerting configured simply
// contributes nothing.
type alertWatcher struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	seen map[string]watchedAlert
}

func watchAlerts(parent context.Context, cl *ppclient.Client, every time.Duration) *alertWatcher {
	ctx, cancel := context.WithCancel(parent)
	w := &alertWatcher{cancel: cancel, done: make(chan struct{}), seen: map[string]watchedAlert{}}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			w.poll(ctx, cl)
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *alertWatcher) poll(ctx context.Context, cl *ppclient.Client) {
	list, err := cl.Alerts(ctx, true)
	if err != nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, a := range list.Alerts {
		if a.State != "firing" {
			continue
		}
		k := a.Rule + "|" + a.Node + "|" + a.Series
		if _, ok := w.seen[k]; !ok {
			w.seen[k] = watchedAlert{Rule: a.Rule, Node: a.Node, Series: a.Series, FiredAt: a.FiredAt}
		}
	}
}

// stop takes one last look (alerts often cross into firing on the tail
// of the run), shuts the poller down and returns what it saw, ordered
// by rule then node.
func (w *alertWatcher) stop(ctx context.Context, cl *ppclient.Client) []watchedAlert {
	w.poll(ctx, cl)
	w.cancel()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]watchedAlert, 0, len(w.seen))
	for _, a := range w.seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// errSLOBreach marks a run that finished but failed its -slo gate; main
// distinguishes it from setup failures only in the message, both exit
// non-zero.
var errSLOBreach = errors.New("slo breached")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pploadgen:", err)
		os.Exit(1)
	}
}
