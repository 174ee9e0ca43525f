package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strconv"
	"strings"
	"testing"
	"time"

	"ppclust/internal/metrics"
)

func TestSpanTree(t *testing.T) {
	ctx, root := StartTrace(context.Background(), "", "http")
	if TraceID(ctx) == "" || len(TraceID(ctx)) != 16 {
		t.Fatalf("minted trace ID %q, want 16 hex chars", TraceID(ctx))
	}
	ctx2, auth := Start(ctx, "auth")
	auth.Set("owner", "alice")
	auth.End()
	_, eng := Start(ctx2, "engine.protect")
	eng.End()
	root.End()

	tree := FromContext(ctx).Tree()
	if tree.Name != "http" || len(tree.Children) != 1 {
		t.Fatalf("tree = %+v, want root http with 1 child", tree)
	}
	if tree.Children[0].Name != "auth" || len(tree.Children[0].Children) != 1 {
		t.Fatalf("auth child = %+v", tree.Children[0])
	}
	if got := tree.Children[0].Children[0].Name; got != "engine.protect" {
		t.Fatalf("grandchild = %q, want engine.protect", got)
	}
	if len(tree.Children[0].Attrs) != 1 || tree.Children[0].Attrs[0].Key != "owner" {
		t.Fatalf("auth attrs = %+v", tree.Children[0].Attrs)
	}

	stages := FromContext(ctx).Stages()
	if len(stages) != 2 || stages[0].Name != "auth" || stages[1].Name != "engine.protect" {
		t.Fatalf("stages = %+v", stages)
	}
}

func TestStartTraceAdoptsID(t *testing.T) {
	ctx, _ := StartTrace(context.Background(), "deadbeefcafef00d", "http")
	if got := TraceID(ctx); got != "deadbeefcafef00d" {
		t.Fatalf("TraceID = %q, want adopted header ID", got)
	}
}

func TestNilSpanSafety(t *testing.T) {
	ctx := context.Background()
	ctx2, s := Start(ctx, "orphan") // no trace in ctx
	if s != nil {
		t.Fatal("Start without trace should return nil span")
	}
	s.Set("k", 1) // must not panic
	s.End()
	if s.Duration() != 0 {
		t.Fatal("nil span duration")
	}
	if TraceID(ctx2) != "" {
		t.Fatal("no trace ID expected")
	}
}

func TestWithTraceID(t *testing.T) {
	ctx := WithTraceID(context.Background(), "0123456789abcdef")
	if got := TraceID(ctx); got != "0123456789abcdef" {
		t.Fatalf("pinned ID = %q", got)
	}
	if FromContext(ctx) != nil {
		t.Fatal("pinned ID must not activate span recording")
	}
}

func TestDoubleEndKeepsFirstDuration(t *testing.T) {
	_, root := StartTrace(context.Background(), "", "r")
	root.End()
	d := root.Duration()
	time.Sleep(2 * time.Millisecond)
	root.End()
	if root.Duration() != d {
		t.Fatalf("second End changed duration: %v -> %v", d, root.Duration())
	}
}

func TestLogAttrsAndLogger(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo, slog.String("node", "n1"))
	ctx, _ := StartTrace(context.Background(), "feedfacefeedface", "http")
	lg.Info("request", append([]any{slog.String("route", "GET /x")}, LogAttrs(ctx)...)...)

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	for k, want := range map[string]string{
		"node": "n1", "route": "GET /x", "trace": "feedfacefeedface", "msg": "request",
	} {
		if rec[k] != want {
			t.Fatalf("log[%q] = %v, want %q (line: %s)", k, rec[k], want, buf.String())
		}
	}
	if LogAttrs(context.Background()) != nil {
		t.Fatal("LogAttrs without trace should be empty")
	}
}

// TestPromTextFormat is the conformance test for the renderer on a
// node's own snapshot (registry series plus derived gauges, as /metrics
// serves it): TYPE lines precede samples, buckets are in numeric order (a
// lexical sort would put 10 before 5), and +Inf is last.
func TestPromTextFormat(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter(`http_requests_total{route="GET /x",status="200"}`).Add(3)
	reg.Counter(`http_requests_total{route="GET /x",status="404"}`).Add(1)
	// Bounds chosen so lexical ordering (10, 100, 25, 5) differs from
	// numeric (5, 10, 25, 100).
	h := reg.Histogram(`d_us{route="GET /x"}`, []float64{5, 10, 25, 100})
	h.Observe(7)
	h.Observe(2000)
	snap := reg.Snapshot()
	snap["jobs_queue_depth"] = 4
	snap[`federation_parties{fed="ab"}`] = 2

	var buf bytes.Buffer
	if err := WritePromFlat(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

	seenType := map[string]string{}
	var lastBound float64
	var sawInf, infIsLastBucket bool
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			seenType[parts[0]] = parts[1]
			continue
		}
		// Label values may contain spaces (route="GET /x"); the value is
		// everything after the LAST space.
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:sp]
		base, _ := metrics.SplitName(name)
		fam := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_sum"), "_count")
		if _, ok := seenType[fam]; !ok {
			t.Fatalf("sample %q before its # TYPE line\n%s", line, out)
		}
		if strings.HasPrefix(name, "d_us_bucket{") {
			i := strings.Index(name, `le="`)
			le := name[i+4 : strings.LastIndex(name, `"`)]
			if le == "+Inf" {
				sawInf, infIsLastBucket = true, true
				continue
			}
			infIsLastBucket = false
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", le, err)
			}
			if b <= lastBound {
				t.Fatalf("bucket bounds out of numeric order: %g after %g\n%s", b, lastBound, out)
			}
			lastBound = b
		}
	}
	if !sawInf || !infIsLastBucket {
		t.Fatalf("+Inf bucket missing or not last\n%s", out)
	}
	if seenType["http_requests_total"] != "counter" ||
		seenType["d_us"] != "histogram" ||
		seenType["jobs_queue_depth"] != "gauge" ||
		seenType["federation_parties"] != "gauge" {
		t.Fatalf("TYPE lines = %v", seenType)
	}
	if !strings.Contains(out, `d_us_bucket{route="GET /x",le="+Inf"} 2`) {
		t.Fatalf("+Inf cumulative count wrong:\n%s", out)
	}
	if !strings.Contains(out, `d_us_count{route="GET /x"} 2`) {
		t.Fatalf("histogram _count missing:\n%s", out)
	}
}
