package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/metrics"
)

// Flight recorder: when an alert fires, capture the evidence an
// operator would otherwise have lost by the time they look — a CPU
// profile of the next second, the goroutine and heap state, the trace
// IDs of the window's slowest and error requests, and the metrics
// history around the breach — into one bounded on-disk incident bundle.
//
// A bundle is a directory under the incident dir:
//
//	<id>/meta.json        rule, series, value, trace IDs, file list
//	<id>/goroutines.txt   full goroutine dump (pprof debug=2)
//	<id>/heap.pprof       heap profile
//	<id>/cpu.pprof        CPU profile over CPUProfile (when available)
//	<id>/traces.json      the retained slowest/error trace records
//	<id>/history.json     pulse excerpt for the alert's series
//
// meta.json is written last, so a listing never shows a half-captured
// bundle. Captures are serialized (one at a time, overlap skipped and
// counted) and debounced per rule; retention deletes the oldest bundles
// past MaxIncidents.

// A bundle quotes the incidentTraces worst retained traces and the
// metrics history of the last incidentHistory.
const (
	incidentTraces  = 10
	incidentHistory = 10 * time.Minute
)

// RecorderConfig bounds the flight recorder.
type RecorderConfig struct {
	// Dir is the incident directory, created if missing.
	Dir string
	// Node labels bundles with this node's identity.
	Node string
	// MaxIncidents caps retained bundles (0: 16).
	MaxIncidents int
	// CPUProfile is the CPU capture duration (0: 1s; negative: no CPU
	// profile).
	CPUProfile time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// IncidentMeta is one bundle's manifest — the GET /v1/incidents listing
// entry and the bundle's own meta.json.
type IncidentMeta struct {
	ID        string    `json:"id"`
	Rule      string    `json:"rule"`
	Kind      string    `json:"kind,omitempty"`
	Series    string    `json:"series,omitempty"`
	Node      string    `json:"node,omitempty"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	At        time.Time `json:"at"`
	TraceIDs  []string  `json:"trace_ids,omitempty"`
	Files     []string  `json:"files"`
	Notes     []string  `json:"notes,omitempty"`
}

// Recorder captures incident bundles. Construct with NewRecorder; feed
// it alert events via OnEvent (typically as part of the alert engine's
// notify fan-out).
type Recorder struct {
	cfg    RecorderConfig
	traces *TraceStore
	pulse  *Pulse

	captures *metrics.Counter
	skipped  *metrics.Counter

	mu   sync.Mutex
	seq  atomic.Int64
	busy atomic.Bool
	wg   sync.WaitGroup
}

// NewRecorder builds a recorder writing bundles under cfg.Dir, reading
// evidence from traces and pulse (either may be nil), registering its
// counters on reg (nil: counters kept private).
func NewRecorder(cfg RecorderConfig, traces *TraceStore, pulse *Pulse, reg *metrics.Registry) (*Recorder, error) {
	if cfg.MaxIncidents <= 0 {
		cfg.MaxIncidents = 16
	}
	if cfg.CPUProfile == 0 {
		cfg.CPUProfile = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("incident dir: %w", err)
	}
	return &Recorder{
		cfg:      cfg,
		traces:   traces,
		pulse:    pulse,
		captures: reg.Counter("incidents_captured_total"),
		skipped:  reg.Counter("incidents_skipped_total"),
	}, nil
}

// SetPulse wires the metrics-history source after construction — the
// daemon builds the recorder before the pulse store exists (the
// recorder's counters live on the same registry the pulse samples).
// Must be called before any capture can run.
func (r *Recorder) SetPulse(p *Pulse) {
	if r != nil {
		r.pulse = p
	}
}

// OnEvent captures a bundle for a firing alert, asynchronously. The
// alert engine's per-rule notification debounce is the capture
// debounce: every event that reaches the sink is capture-worthy.
// Overlapping captures are skipped (counted) — a CPU profile cannot be
// taken twice at once, and a storm of simultaneous firings describes
// one incident.
func (r *Recorder) OnEvent(ev AlertEvent) {
	if r == nil || ev.State != AlertFiring {
		return
	}
	if !r.busy.CompareAndSwap(false, true) {
		r.skipped.Inc()
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.busy.Store(false)
		r.Capture(ev)
	}()
}

// Wait blocks until in-flight captures finish — shutdown and tests.
func (r *Recorder) Wait() {
	if r != nil {
		r.wg.Wait()
	}
}

// Capture synchronously writes one bundle and returns its meta.
func (r *Recorder) Capture(ev AlertEvent) IncidentMeta {
	now := r.cfg.Now()
	id := fmt.Sprintf("%s-%03d-%s", now.UTC().Format("20060102T150405"), r.seq.Add(1)%1000, slugify(ev.Rule))
	dir := filepath.Join(r.cfg.Dir, id)
	meta := IncidentMeta{
		ID: id, Rule: ev.Rule, Kind: ev.Kind, Series: ev.Series,
		Node: r.cfg.Node, Value: ev.Value, Threshold: ev.Threshold, At: now,
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		meta.Notes = append(meta.Notes, "mkdir: "+err.Error())
		return meta
	}
	writeFile := func(name string, write func(*os.File) error) {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
		if err != nil {
			meta.Notes = append(meta.Notes, name+": "+err.Error())
			return
		}
		werr := write(f)
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			meta.Notes = append(meta.Notes, name+": "+werr.Error())
			os.Remove(filepath.Join(dir, name))
			return
		}
		meta.Files = append(meta.Files, name)
	}

	writeFile("goroutines.txt", func(f *os.File) error {
		return pprof.Lookup("goroutine").WriteTo(f, 2)
	})
	writeFile("heap.pprof", func(f *os.File) error {
		return pprof.Lookup("heap").WriteTo(f, 0)
	})
	if r.cfg.CPUProfile > 0 {
		writeFile("cpu.pprof", func(f *os.File) error {
			// StartCPUProfile fails when profiling is already active
			// (another subsystem, or -pprof-addr's /debug/pprof/profile);
			// the note records the gap instead of failing the bundle.
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			time.Sleep(r.cfg.CPUProfile)
			pprof.StopCPUProfile()
			return nil
		})
	}
	if r.traces != nil {
		recs := worstTraces(r.traces, incidentTraces)
		if len(recs) > 0 {
			for _, rec := range recs {
				meta.TraceIDs = append(meta.TraceIDs, rec.ID)
			}
			writeFile("traces.json", func(f *os.File) error {
				enc := json.NewEncoder(f)
				enc.SetIndent("", "  ")
				return enc.Encode(recs)
			})
		}
	}
	if r.pulse != nil {
		var filters []string
		if ev.Series != "" {
			filters = append(filters, ev.Series)
		}
		series, _ := r.pulse.Query(HistoryQuery{
			Series: filters,
			Since:  now.Add(-incidentHistory),
		})
		if len(series) > 0 {
			writeFile("history.json", func(f *os.File) error {
				enc := json.NewEncoder(f)
				enc.SetIndent("", "  ")
				return enc.Encode(map[string]any{"series": series})
			})
		}
	}
	// meta.json last: its presence is what marks the bundle complete. It
	// lists itself so Files is the full downloadable set, which is why it
	// bypasses writeFile (whose on-success append would double the entry).
	meta.Files = append(meta.Files, "meta.json")
	if raw, err := json.MarshalIndent(meta, "", "  "); err != nil {
		meta.Notes = append(meta.Notes, "meta.json: "+err.Error())
	} else if err := os.WriteFile(filepath.Join(dir, "meta.json"), append(raw, '\n'), 0o600); err != nil {
		meta.Notes = append(meta.Notes, "meta.json: "+err.Error())
	}
	r.captures.Inc()
	r.enforceRetention()
	return meta
}

// worstTraces returns the store's error traces first, then the slowest,
// capped at n — the request-level evidence for the breach window.
func worstTraces(store *TraceStore, n int) []TraceRecord {
	recs := store.Query(TraceQuery{Limit: 20 * n})
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Error != recs[j].Error {
			return recs[i].Error
		}
		return recs[i].DurMs > recs[j].DurMs
	})
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs
}

// enforceRetention deletes the oldest complete bundles past the cap.
// Bundle IDs start with a UTC timestamp, so name order is age order.
func (r *Recorder) enforceRetention() {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.bundleIDs()
	for len(ids) > r.cfg.MaxIncidents {
		os.RemoveAll(filepath.Join(r.cfg.Dir, ids[0]))
		ids = ids[1:]
	}
}

// bundleIDs lists complete bundles (meta.json present), oldest first.
func (r *Recorder) bundleIDs() []string {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return nil
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(r.cfg.Dir, e.Name(), "meta.json")); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids
}

// List returns every complete bundle's meta, newest first.
func (r *Recorder) List() []IncidentMeta {
	if r == nil {
		return nil
	}
	ids := r.bundleIDs()
	out := make([]IncidentMeta, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if meta, err := r.Get(ids[i]); err == nil {
			out = append(out, meta)
		}
	}
	return out
}

// Get reads one bundle's meta.
func (r *Recorder) Get(id string) (IncidentMeta, error) {
	if err := validBundlePart(id); err != nil {
		return IncidentMeta{}, err
	}
	raw, err := os.ReadFile(filepath.Join(r.cfg.Dir, id, "meta.json"))
	if err != nil {
		return IncidentMeta{}, err
	}
	var meta IncidentMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return IncidentMeta{}, err
	}
	return meta, nil
}

// ReadFile returns one bundle file's raw bytes.
func (r *Recorder) ReadFile(id, name string) ([]byte, error) {
	if err := validBundlePart(id); err != nil {
		return nil, err
	}
	if err := validBundlePart(name); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(r.cfg.Dir, id, name))
}

// validBundlePart rejects path elements that could escape the incident
// dir.
func validBundlePart(s string) error {
	if s == "" || s == "." || s == ".." ||
		strings.ContainsAny(s, "/\\") || strings.Contains(s, "..") {
		return fmt.Errorf("bad incident path element %q", s)
	}
	return nil
}

// slugify reduces a rule name to a filesystem-safe suffix.
func slugify(s string) string {
	var b strings.Builder
	for _, c := range strings.ToLower(s) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b.WriteRune(c)
		default:
			b.WriteByte('-')
		}
		if b.Len() >= 48 {
			break
		}
	}
	return strings.Trim(b.String(), "-")
}
