package service

// The observability snapshot: service counters composed with live gauges
// from the subsystems that own them, at read time rather than
// double-booked as counters.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"ppclust/internal/datastore"
	"ppclust/internal/metrics"
)

// FedMetricLabel derives the public metrics label for a federation ID: a
// 12-hex-digit SHA-256 prefix, unique enough per live federation and
// useless as a join capability. The metrics surface is unauthenticated
// and the raw ID doubles as the invitation, so the ID itself must never
// appear there; members can recompute the prefix from the ID they hold
// to find their gauge.
func FedMetricLabel(id string) string {
	h := sha256.Sum256([]byte(id))
	return hex.EncodeToString(h[:6])
}

// MetricsSnapshot returns every registry counter and histogram series
// plus the live job, engine, admission, federation, datastore-cache and
// runtime gauges and those of every AddGaugeSource provider: the one flat
// body behind /v1/metrics and, through obs.WritePromFlat, /metrics, and
// the embedded-use surface.
func (s *Services) MetricsSnapshot() map[string]int64 {
	snap := s.c.reg.Snapshot()
	stats := s.c.mgr.Stats()
	snap["jobs_submitted_total"] = stats.Submitted
	snap["jobs_completed_total"] = stats.Completed
	snap["jobs_failed_total"] = stats.Failed
	snap["jobs_cancelled_total"] = stats.Cancelled
	snap["jobs_queued"] = int64(stats.QueueDepth)
	snap["jobs_running"] = int64(stats.RunningNow)
	snap["job_workers"] = int64(stats.Workers)
	snap["engine_workers"] = int64(s.c.eng.Workers())
	if s.c.adm != nil {
		snap["admission_waiting"] = s.c.adm.waiting.Load()
	}
	// Federation gauges: state totals plus per-federation membership and
	// contributed-row sizes. Cardinality is bounded by the number of live
	// federations; the label is a hash prefix, never the capability ID.
	fstats := s.c.feds.Stats()
	snap["federations_total"] = int64(len(fstats.Federations))
	snap["federations_open"] = int64(fstats.Open)
	snap["federations_frozen"] = int64(fstats.Frozen)
	snap["federations_sealed"] = int64(fstats.Sealed)
	var fedParties, fedRows int64
	for _, f := range fstats.Federations {
		fedParties += int64(f.Parties)
		fedRows += int64(f.Rows)
		label := FedMetricLabel(f.ID)
		snap[fmt.Sprintf(`federation_parties{fed=%q}`, label)] = int64(f.Parties)
		snap[fmt.Sprintf(`federation_rows{fed=%q}`, label)] = int64(f.Rows)
	}
	snap["federation_parties_total"] = fedParties
	snap["federation_rows_total"] = fedRows
	// Datastore block-cache gauges, when the wired store has one.
	if dir, ok := s.c.st.(*datastore.Dir); ok {
		cs := dir.Cache().Stats()
		snap["datastore_cache_hits_total"] = cs.Hits
		snap["datastore_cache_misses_total"] = cs.Misses
		snap["datastore_cache_evictions_total"] = cs.Evictions
		snap["datastore_cache_entries"] = int64(cs.Entries)
		snap["datastore_cache_bytes"] = cs.Bytes
		snap["datastore_cache_max_bytes"] = cs.MaxBytes
	}
	// Go runtime health: goroutines, heap, GC pauses, build identity.
	for k, v := range metrics.RuntimeGauges() {
		snap[k] = v
	}
	s.c.gaugeMu.RLock()
	sources := s.c.gaugeSources
	s.c.gaugeMu.RUnlock()
	for _, fn := range sources {
		for k, v := range fn() {
			snap[k] = v
		}
	}
	return snap
}
