package main

// Metrics exposition and per-request instrumentation.
//
//	GET /v1/metrics  flat JSON snapshot (counters, gauges, spliced
//	                 histogram series) — the embedded/SDK surface
//	GET /metrics     the same snapshot in Prometheus text format (proper
//	                 # TYPE lines, numeric bucket order, +Inf last) — the
//	                 scrape surface
//
// Like /healthz and /v1/keys both expose aggregate metadata only, never
// data or key material, so they are unauthenticated. The snapshot body
// is composed by the service layer; this file owns the HTTP
// instrumentation wrapper: the trace edge (mint/adopt X-Ppclust-Trace),
// the route+status counters and latency histograms, the slog access
// log, and the slow-request span dump.

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"ppclust/internal/obs"
)

// latencyBoundsUs are the fixed per-route latency buckets, in
// microseconds: fine enough to separate a metadata GET from a streamed
// protect, bounded so the metric stays O(routes × 12) gauges forever.
var latencyBoundsUs = []float64{
	500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 5_000_000,
}

// instrument is the trace edge and the instrumentation wrapper, the
// outermost layer of the handler stack. For every request it:
//
//   - adopts the X-Ppclust-Trace header (or mints a fresh ID), starts
//     the request's span tree on the context, reflects the ID into both
//     the response (so clients can quote it) and the request headers (so
//     a ring forward carries it to the owning node);
//   - increments a route+status-labelled counter and records latency
//     into a bounded per-route histogram;
//   - writes one structured access-log record carrying trace ID, owner,
//     route, status and duration;
//   - when the request exceeded the -slow-ms threshold, logs the full
//     span tree so the slow stage is identifiable without a re-run.
func (s *server) instrument(next http.Handler) http.Handler {
	reg := s.svc.Registry()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, root := obs.StartTrace(r.Context(), r.Header.Get(obs.TraceHeader), "http")
		id := obs.TraceID(ctx)
		r = r.WithContext(ctx)
		r.Header.Set(obs.TraceHeader, id)
		w.Header().Set(obs.TraceHeader, id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		// Deferred so that requests a handler kills mid-stream with
		// panic(http.ErrAbortHandler) — exactly the failures an operator
		// watches error rates for — are still counted; the panic keeps
		// unwinding to net/http afterwards.
		defer func() {
			root.End()
			route := r.Pattern
			if route == "" {
				route = "unmatched"
			}
			elapsed := time.Since(start)
			durMs := float64(elapsed.Microseconds()) / 1000
			owner := r.URL.Query().Get("owner")
			reg.Counter(fmt.Sprintf(`http_requests_total{route=%q,status="%d"}`, route, rec.status)).Inc()
			reg.Histogram(fmt.Sprintf(`http_request_duration_us{route=%q}`, route), latencyBoundsUs).
				Observe(float64(elapsed.Microseconds()))
			// SLO accounting counts 5xx as errors: a 4xx is the client's
			// fault and spending the error budget on it would let bad input
			// mask a real availability regression.
			s.slo.Observe(route, durMs, rec.status >= 500)
			// ShouldKeep gates before Tree(): dropped traces never pay the
			// span-tree export. Errors and slow requests always pass; the
			// rest hash the trace ID so every ring node keeps the same set.
			if s.traces != nil && s.traces.ShouldKeep(id, rec.status, durMs) {
				s.traces.Put(obs.TraceRecord{
					ID:     id,
					Node:   s.nodeName(),
					Route:  route,
					Status: rec.status,
					Owner:  owner,
					Start:  start,
					DurMs:  durMs,
					Error:  rec.status >= 500,
					Spans:  obs.FromContext(ctx).Tree(),
				})
			}
			attrs := []slog.Attr{
				slog.String("trace", id),
				slog.String("route", route),
				slog.Int("status", rec.status),
				slog.Float64("dur_ms", durMs),
			}
			if owner != "" {
				attrs = append(attrs, slog.String("owner", owner))
			}
			s.logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
			if s.slowLog > 0 && elapsed >= s.slowLog {
				s.logger.LogAttrs(ctx, slog.LevelWarn, "slow request",
					append(attrs, slog.Any("spans", obs.FromContext(ctx).Tree()))...)
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// statusRecorder captures the response status. Unwrap keeps
// http.ResponseController features (full-duplex streaming, flush) working
// through the wrapper; Flush covers handlers that type-assert
// http.Flusher directly.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (s *statusRecorder) WriteHeader(code int) {
	if !s.wrote {
		s.status = code
		s.wrote = true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	s.wrote = true
	return s.ResponseWriter.Write(p)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.localSnapshot())
}

// handlePromMetrics serves the /v1/metrics snapshot in the Prometheus
// text exposition format, through the same renderer as the cluster
// aggregate's ?format=prometheus.
func (s *server) handlePromMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	if err := obs.WritePromFlat(w, s.localSnapshot()); err != nil {
		s.logger.Warn("metrics exposition", "err", err.Error())
	}
}
