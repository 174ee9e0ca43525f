package main

// Observability acceptance: trace propagation across a 3-node ring,
// Prometheus text-format conformance of GET /metrics, trace-carrying job
// status over the client SDK, readiness semantics, and trace-ID
// sanitization at the edge.

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ppclust/internal/obs"
	"ppclust/ppclient"
)

// syncBuf is a concurrency-safe log sink for test servers.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRingTracePropagation pins a client-chosen trace ID on a request
// that enters the ring through a non-owner node, and asserts the same ID
// is (a) reflected in the response header, (b) access-logged on both the
// entry node and the owning node, and (c) attached to span trees on both
// sides of the forward hop — the entry node recording the ring.forward
// span, the owner recording the ingest.
func TestRingTracePropagation(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	logs := map[string]*syncBuf{}
	for _, nd := range nodes {
		buf := &syncBuf{}
		logs[nd.id] = buf
		nd.s.logger = obs.NewLogger(buf, slog.LevelInfo, slog.String("node", nd.id))
		nd.s.slowLog = time.Nanosecond // every request dumps its span tree
		nd.rt.logger = nd.s.logger
	}

	owner := ownerHomedOn(t, nodes, "n1", 0)
	entry := entryAvoiding(t, nodes, owner)
	home := nodeByID(t, nodes, "n1")
	const trace = "trace-e2e-0001"

	csv, _ := testCSV(t, 40, 7)
	req, err := http.NewRequest(http.MethodPost,
		entry.addr+"/v1/datasets?owner="+owner+"&name=d1", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(ppclient.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload via %s: status %d", entry.id, resp.StatusCode)
	}
	if got := resp.Header.Get(ppclient.TraceHeader); got != trace {
		t.Fatalf("response trace header = %q, want %q", got, trace)
	}

	// The access log is written in a deferred wrapper that may complete
	// after the client sees the response; poll.
	waitUntil(t, 3*time.Second, "trace in both nodes' logs", func() bool {
		return strings.Contains(logs[entry.id].String(), trace) &&
			strings.Contains(logs[home.id].String(), trace)
	})
	if got := logs[entry.id].String(); !strings.Contains(got, "ring.forward") {
		t.Fatalf("entry node %s span dump has no ring.forward span:\n%s", entry.id, got)
	}
	if got := logs[home.id].String(); !strings.Contains(got, "ingest") {
		t.Fatalf("home node span dump has no ingest span:\n%s", got)
	}
	// Both nodes adopted the one ID: stitching the cross-node request is
	// a grep, which is the contract.
	for id, buf := range logs {
		if id != entry.id && id != home.id && strings.Contains(buf.String(), trace) {
			t.Fatalf("bystander node %s saw trace %s:\n%s", id, trace, buf.String())
		}
	}
}

// TestJobTraceAndTimeline pins a trace ID on a job submission and checks
// the finished job's status carries that ID plus a per-stage timeline.
func TestJobTraceAndTimeline(t *testing.T) {
	ts, _ := newTestServer(t)
	cl := ppclient.New(ts.URL, "tracejobs")
	csv, _ := testCSV(t, 60, 3)
	ctx := ppclient.WithTraceID(context.Background(), "trace-job-0001")
	if _, err := cl.UploadDatasetCSV(ctx, "d", strings.NewReader(csv), false); err != nil {
		t.Fatal(err)
	}
	st, err := cl.SubmitJob(ctx, map[string]any{"type": "cluster", "dataset": "d", "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != "trace-job-0001" {
		t.Fatalf("submitted job trace = %q, want trace-job-0001", st.TraceID)
	}
	done, err := cl.WaitJob(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != "done" {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if done.TraceID != "trace-job-0001" {
		t.Fatalf("finished job trace = %q, want trace-job-0001", done.TraceID)
	}
	if len(done.Timeline) == 0 {
		t.Fatal("finished job has no timeline")
	}
	if done.Timeline[0].Name != "queued" || done.Timeline[1].Name != "running" {
		t.Fatalf("timeline starts %q,%q, want queued,running", done.Timeline[0].Name, done.Timeline[1].Name)
	}
}

// promLine matches "name{labels} value" and "name value" sample lines.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

// TestPromMetricsEndpoint checks the scrape surface end to end: content
// type, a # TYPE line preceding every family, parseable sample lines,
// and histogram buckets in ascending numeric order with +Inf last and
// _sum/_count present.
func TestPromMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// Generate some traffic so route counters and latency histograms exist.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q, want %q", ct, obs.PromContentType)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	typed := map[string]string{} // family → kind
	buckets := map[string][]float64{}
	sawInfLast := map[string]bool{}
	sums := map[string]bool{}
	counts := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparseable sample %q", ln+1, line)
		}
		name := m[1]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && typed[b] == "histogram" {
				base = b
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, line)
		}
		if typed[base] == "histogram" {
			series := base + m[2] // one bucket ordering per label set
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le := leBound(t, m[2])
				if sawInfLast[series] {
					t.Fatalf("line %d: bucket after +Inf in %q", ln+1, line)
				}
				if prev := buckets[base]; len(prev) > 0 && le <= prev[len(prev)-1] {
					t.Fatalf("line %d: bucket bound %g not ascending in %s", ln+1, le, base)
				}
				buckets[base] = append(buckets[base], le)
				if le == infBound {
					sawInfLast[series] = true
					buckets[base] = nil // next label set starts over
				}
			case strings.HasSuffix(name, "_sum"):
				sums[base] = true
			case strings.HasSuffix(name, "_count"):
				counts[base] = true
			}
		}
	}
	if typed["http_requests_total"] != "counter" {
		t.Fatalf("http_requests_total typed %q, want counter", typed["http_requests_total"])
	}
	if typed["http_request_duration_us"] != "histogram" {
		t.Fatalf("http_request_duration_us typed %q, want histogram", typed["http_request_duration_us"])
	}
	if !sums["http_request_duration_us"] || !counts["http_request_duration_us"] {
		t.Fatal("histogram family missing _sum or _count series")
	}
	if !strings.Contains(text, `route="GET /healthz"`) {
		t.Fatalf("no healthz route series in exposition:\n%s", text)
	}
}

var infBound = math.Inf(1)

func leBound(t *testing.T, labels string) float64 {
	t.Helper()
	i := strings.LastIndex(labels, `le="`)
	if i < 0 {
		t.Fatalf("bucket labels %q carry no le", labels)
	}
	rest := labels[i+4:]
	j := strings.IndexByte(rest, '"')
	if rest[:j] == "+Inf" {
		return infBound
	}
	v, err := strconv.ParseFloat(rest[:j], 64)
	if err != nil {
		t.Fatalf("bucket bound %q: %v", rest[:j], err)
	}
	return v
}

// TestReadyz pins the readiness semantics: 200 when up, 503 "draining"
// the moment shutdown starts, 503 "starting" before startup completes —
// while /healthz stays 200 throughout (liveness is not routability).
func TestReadyz(t *testing.T) {
	ts, s := newTestServer(t)
	check := func(wantStatus int, wantBody string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus || !strings.Contains(body.String(), wantBody) {
			t.Fatalf("readyz = %d %q, want %d containing %q", resp.StatusCode, body.String(), wantStatus, wantBody)
		}
		live, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		live.Body.Close()
		if live.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d during readiness transition, want 200", live.StatusCode)
		}
	}
	check(http.StatusOK, "ready")
	s.ready.Store(false)
	check(http.StatusServiceUnavailable, "starting")
	s.ready.Store(true)
	s.draining.Store(true)
	check(http.StatusServiceUnavailable, "draining")
}

// TestTraceIDSanitized: a hostile or malformed inbound trace ID is
// replaced with a minted one, never echoed back (it would land verbatim
// in logs and headers otherwise).
func TestTraceIDSanitized(t *testing.T) {
	ts, _ := newTestServer(t)
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, bad := range []string{`x`, `evil"} {injected`, strings.Repeat("a", 65), "with space"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ppclient.TraceHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get(ppclient.TraceHeader)
		if got == bad || !hexID.MatchString(got) {
			t.Fatalf("trace %q came back as %q, want a fresh 16-hex ID", bad, got)
		}
	}
	// A well-formed ID is adopted verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(ppclient.TraceHeader, "deadbeefcafef00d")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(ppclient.TraceHeader); got != "deadbeefcafef00d" {
		t.Fatalf("valid trace ID not adopted: got %q", got)
	}
}

var _ = fmt.Sprintf // keep fmt imported if assertions above change
