package main

// Unit tests for the load harness: mix parsing, the nearest-rank
// percentile, and a closed-loop smoke run against a stub daemon that
// verifies the report's counts, mix proportions and error accounting.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ppclust/internal/codec"
)

func TestParseMix(t *testing.T) {
	got, err := parseMix("upload=2,cluster=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []opKind{opUpload, opUpload, opCluster}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseMix = %v, want %v", got, want)
	}
	// Bare names default to weight 1.
	if got, err = parseMix("protect"); err != nil || len(got) != 1 || got[0] != opProtect {
		t.Fatalf("bare name: %v %v", got, err)
	}
	for _, bad := range []string{"", "upload=x", "delete=1", "upload=-1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
	// Weight 0 drops the operation.
	if got, _ := parseMix("upload=0,protect=1"); len(got) != 1 || got[0] != opProtect {
		t.Fatalf("zero weight: %v", got)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{50, 5}, {95, 10}, {99, 10}, {100, 10}, {10, 1}}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", c.q, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must yield 0")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %g", got)
	}
}

// stubDaemon implements just enough of the ppclustd surface for a load
// run: uploads mint a token, stream-protect echoes, jobs are done the
// moment they are polled. Protect can be made to fail to exercise the
// error-rate accounting.
func stubDaemon(failProtect *atomic.Bool) http.Handler {
	var jobs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Ppclust-Token", "tok-"+r.URL.Query().Get("owner"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"owner":%q,"name":%q,"rows":8}`, r.URL.Query().Get("owner"), r.URL.Query().Get("name"))
	})
	mux.HandleFunc("POST /v1/protect", func(w http.ResponseWriter, r *http.Request) {
		if failProtect != nil && failProtect.Load() && r.URL.Query().Get("mode") == "stream" {
			http.Error(w, `{"error":{"code":"internal","message":"boom"}}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprint(w, "a,b\n1,2\n")
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j%d","state":"queued"}`, jobs.Add(1))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q,"state":"done"}`, r.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"status":{"id":%q,"state":"done"},"result":{"k":3}}`, r.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"enabled":true,"alerts":[
			{"rule":"queue_depth>10 for 5s","kind":"threshold","series":"queue_depth","node":"n1",
			 "state":"firing","value":12,"threshold":10,
			 "since":"2026-08-07T00:00:00Z","fired_at":"2026-08-07T00:00:05Z"}]}`)
	})
	return mux
}

func TestLoadgenSmoke(t *testing.T) {
	ts := httptest.NewServer(stubDaemon(nil))
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	err := run([]string{
		"-addrs", ts.URL, "-owners", "2", "-concurrency", "3",
		"-requests", "30", "-rows", "8", "-mix", "upload=1,protect=1,cluster=1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	total := 0
	for op, st := range rep.Ops {
		if st.Errors != 0 {
			t.Errorf("%s: %d errors", op, st.Errors)
		}
		if st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
			t.Errorf("%s: implausible percentiles %+v", op, st)
		}
		total += st.Count
	}
	if total != 30 {
		t.Fatalf("report covers %d ops, want 30", total)
	}
	// An even three-way mix over 30 requests is 10 of each.
	for _, op := range []string{"upload", "protect", "cluster"} {
		if rep.Ops[op].Count != 10 {
			t.Errorf("%s count = %d, want 10", op, rep.Ops[op].Count)
		}
	}
	if rep.ErrorRate != 0 || rep.Throughput <= 0 {
		t.Fatalf("error_rate=%g throughput=%g", rep.ErrorRate, rep.Throughput)
	}
}

func TestLoadgenCountsErrors(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	ts := httptest.NewServer(stubDaemon(&fail))
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	err := run([]string{
		"-addrs", ts.URL, "-owners", "1", "-concurrency", "2",
		"-requests", "10", "-rows", "8", "-mix", "protect=1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Ops["protect"].Errors != 10 || rep.ErrorRate != 1 {
		t.Fatalf("errors=%d rate=%g, want all failed", rep.Ops["protect"].Errors, rep.ErrorRate)
	}
}

// TestLoadgenSLOGate: a healthy run against a satisfiable objective
// exits clean; an unsatisfiable latency objective makes run() return
// errSLOBreach (so main exits non-zero), with the per-objective
// evaluation in the report either way.
func TestLoadgenSLOGate(t *testing.T) {
	ts := httptest.NewServer(stubDaemon(nil))
	t.Cleanup(ts.Close)

	base := []string{
		"-addrs", ts.URL, "-owners", "2", "-concurrency", "2",
		"-requests", "20", "-rows", "8", "-mix", "upload=1,protect=1",
	}

	var out bytes.Buffer
	if err := run(append(base, "-slo", "p50<60s,err<99%"), &out); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	var rep loadReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SLOStatus != "ok" || len(rep.SLO) != 2 {
		t.Fatalf("healthy report slo = %q %+v", rep.SLOStatus, rep.SLO)
	}

	// p50<0 is unsatisfiable: every sample is bad, the run must fail.
	out.Reset()
	err := run(append(base, "-slo", "protect:p50<0"), &out)
	if !errors.Is(err, errSLOBreach) {
		t.Fatalf("breach run err = %v, want errSLOBreach", err)
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("breach run still must print its report: %v\n%s", err, out.String())
	}
	if rep.SLOStatus != "breach" || len(rep.SLO) != 1 || rep.SLO[0].State != "breach" {
		t.Fatalf("breach report slo = %q %+v", rep.SLOStatus, rep.SLO)
	}
	if rep.SLO[0].Requests != int64(rep.Ops["protect"].Count) {
		t.Errorf("objective evaluated %d requests, protect ran %d", rep.SLO[0].Requests, rep.Ops["protect"].Count)
	}

	if _, ok := rep.Ops["upload"]; !ok {
		t.Fatal("no upload stats")
	}
	// Satellite: slowest samples carry ready-to-curl trace URLs.
	for _, op := range rep.Ops {
		for _, s := range op.Slowest {
			if s.TraceURL != ts.URL+"/v1/traces/"+s.TraceID {
				t.Fatalf("trace_url = %q for id %q", s.TraceURL, s.TraceID)
			}
		}
	}

	if err := run(append(base, "-slo", "nonsense"), &out); err == nil {
		t.Error("malformed -slo accepted")
	}
}

// TestLoadgenOutFileAndAlertWatch: -out mirrors the stdout report to a
// file byte-for-byte, and -watch-alerts records the firing alerts the
// stub daemon reports.
func TestLoadgenOutFileAndAlertWatch(t *testing.T) {
	ts := httptest.NewServer(stubDaemon(nil))
	t.Cleanup(ts.Close)

	outPath := filepath.Join(t.TempDir(), "report.json")
	var stdout bytes.Buffer
	err := run([]string{
		"-addrs", ts.URL, "-owners", "1", "-concurrency", "2",
		"-requests", "6", "-rows", "8", "-mix", "protect=1",
		"-out", outPath, "-watch-alerts",
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, stdout.Bytes()) {
		t.Error("-out file differs from the stdout report")
	}
	var rep loadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.AlertsSeen) != 1 {
		t.Fatalf("alerts_seen = %+v, want the stub's one firing alert", rep.AlertsSeen)
	}
	if a := rep.AlertsSeen[0]; a.Rule != "queue_depth>10 for 5s" || a.Node != "n1" || a.FiredAt.IsZero() {
		t.Fatalf("watched alert = %+v", a)
	}

	// An unwritable -out path is a run error, not a silent drop.
	if err := run([]string{
		"-addrs", ts.URL, "-owners", "1", "-concurrency", "1",
		"-requests", "1", "-rows", "8", "-mix", "protect=1",
		"-out", filepath.Join(t.TempDir(), "missing", "report.json"),
	}, &stdout); err == nil {
		t.Error("unwritable -out accepted")
	}
}

// TestLoadgenWireFormats: -wire switches the body the measured ops carry
// (content type + format query), the report names the wire and accounts
// bytes per op in both directions, and the binary payload is the densest
// of the three for the same rows.
func TestLoadgenWireFormats(t *testing.T) {
	type seen struct {
		ct     string
		format string
		body   int64
	}
	var last atomic.Pointer[seen]
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		// Setup seeds each owner's base dataset via ppclient CSV; only
		// the measured uploads, named lg<i>, are recorded.
		if q := r.URL.Query(); strings.HasPrefix(q.Get("name"), "lg") {
			last.Store(&seen{ct: r.Header.Get("Content-Type"), format: q.Get("format"), body: n})
		}
		w.Header().Set("X-Ppclust-Token", "tok")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"owner":"o","name":"d","rows":8}`)
	})
	mux.HandleFunc("POST /v1/protect", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, "ok......")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	bytesOut := map[string]float64{}
	for wire, wantCT := range map[string]string{
		"csv": codec.CSV.ContentType, "json": "application/x-ndjson", "binary": "application/x-ppclust-rows",
	} {
		var out bytes.Buffer
		err := run([]string{
			"-addrs", ts.URL, "-owners", "1", "-concurrency", "1",
			"-requests", "4", "-rows", "8", "-mix", "upload=1,protect=1",
			"-wire", wire,
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", wire, err)
		}
		var rep loadReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Wire != wire {
			t.Errorf("%s: report wire = %q", wire, rep.Wire)
		}
		s := last.Load()
		if s == nil || s.ct != wantCT {
			t.Fatalf("%s: server saw %+v, want content type %q", wire, s, wantCT)
		}
		up := rep.Ops["upload"]
		if up.BytesOutPerOp != float64(s.body) || up.BytesOutPerOp <= 0 {
			t.Errorf("%s: bytes_out_per_op = %g, server read %d", wire, up.BytesOutPerOp, s.body)
		}
		if rep.Ops["protect"].BytesInPerOp != 8 {
			t.Errorf("%s: protect bytes_in_per_op = %g, want 8", wire, rep.Ops["protect"].BytesInPerOp)
		}
		bytesOut[wire] = up.BytesOutPerOp
	}
	if bytesOut["binary"] >= bytesOut["csv"] || bytesOut["binary"] >= bytesOut["json"] {
		t.Errorf("binary body not densest: %v", bytesOut)
	}

	var out bytes.Buffer
	if err := run([]string{"-addrs", ts.URL, "-wire", "xml"}, &out); err == nil {
		t.Error("unknown -wire accepted")
	}
}
