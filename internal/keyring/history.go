package keyring

// Packed key history. Every fit stores a new version and no version is
// ever dropped (see the package comment), so a busy owner's history grows
// by one version per fit. Consecutive versions nearly always differ only
// in their angles and timestamp: an owner that refits the same body or
// schema gets the same pairs, normalization parameters and column count.
// A history therefore keeps every version's angles and creation time in
// two append-only slices, and everything else once per run of consecutive
// versions that share it. Entries are built on read.

import (
	"fmt"
	"math"
	"slices"
	"time"

	"ppclust"
)

// history is one owner's packed version history.
type history struct {
	angles  []float64 // every version's angles, in version order
	created []int64   // per version: CreatedAt in unix nanoseconds, or zeroTime
	runs    []run     // ascending by first; runs[0].first == 1
}

// run is a span of consecutive versions that share a schema.
type run struct {
	first  int // version of the run's first entry
	offset int // index in history.angles of that version's first angle
	schema
}

// schema is everything a version's secret holds besides its angles.
type schema struct {
	keyVersion int
	pairs      []ppclust.Pair
	nAngles    int
	nilAngles  bool // AnglesDeg was nil rather than empty
	norm       ppclust.Normalization
	paramsA    []float64
	paramsB    []float64
	columns    int
}

// zeroTime stands for the zero time.Time, which has no unix nanoseconds.
const zeroTime = math.MinInt64

// minCreated and maxCreated bound the creation times a history can hold.
var minCreated, maxCreated = time.Unix(0, math.MinInt64+1), time.Unix(0, math.MaxInt64)

// checkCreated rejects a creation time outside the unix-nanosecond range.
func checkCreated(t time.Time) error {
	if !t.IsZero() && (t.Before(minCreated) || t.After(maxCreated)) {
		return fmt.Errorf("created_at %s is out of range", t.Format(time.RFC3339))
	}
	return nil
}

// newHistory packs a validated, contiguous version list.
func newHistory(entries []Entry) (*history, error) {
	h := &history{}
	for _, e := range entries {
		if err := checkCreated(e.CreatedAt); err != nil {
			return nil, fmt.Errorf("version %d: %w", e.Version, err)
		}
		h.add(e.Secret, e.CreatedAt)
	}
	return h, nil
}

// versions returns the number of stored versions.
func (h *history) versions() int { return len(h.created) }

// add appends secret as the next version and returns its number. It
// copies what it keeps, so the caller may reuse secret's slices.
func (h *history) add(secret ppclust.OwnerSecret, at time.Time) int {
	v := len(h.created) + 1
	if n := len(h.runs); n == 0 || !h.runs[n-1].matches(secret) {
		h.runs = append(h.runs, run{first: v, offset: len(h.angles), schema: schemaOf(secret)})
	}
	h.angles = append(h.angles, secret.Key.AnglesDeg...)
	ns := int64(zeroTime)
	if !at.IsZero() {
		ns = at.UnixNano()
	}
	h.created = append(h.created, ns)
	return v
}

// truncate keeps versions 1..n.
func (h *history) truncate(n int) {
	end := 0
	if n > 0 {
		r := h.runOf(n)
		end = r.offset + (n-r.first+1)*r.nAngles
	}
	i := len(h.runs)
	for i > 0 && h.runs[i-1].first > n {
		i--
	}
	clear(h.runs[i:]) // let the dropped schemas be collected
	h.runs = h.runs[:i]
	h.angles = h.angles[:end]
	h.created = h.created[:n]
}

// runOf returns the run holding version v (1 ≤ v ≤ versions()).
func (h *history) runOf(v int) *run {
	lo, hi := 0, len(h.runs)
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; h.runs[mid].first <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return &h.runs[lo]
}

// createdAt returns version v's creation time.
func (h *history) createdAt(v int) time.Time {
	ns := h.created[v-1]
	if ns == zeroTime {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// entry builds version v (1 ≤ v ≤ versions()) for owner. Its slices alias
// the history and must not be modified. The run's slices never change,
// and the angles are capped at their own length, so later appends cannot
// reach them; a rollback truncates only a version whose entry was never
// handed out, because the store's lock is held from the append to the
// rollback.
func (h *history) entry(owner string, v int) Entry {
	r := h.runOf(v)
	var angles []float64
	if !r.nilAngles {
		lo := r.offset + (v-r.first)*r.nAngles
		angles = h.angles[lo : lo+r.nAngles : lo+r.nAngles]
	}
	return Entry{
		Owner:     owner,
		Version:   v,
		CreatedAt: h.createdAt(v),
		Secret: ppclust.OwnerSecret{
			Key:           ppclust.Key{Version: r.keyVersion, Pairs: r.pairs, AnglesDeg: angles},
			Normalization: r.norm,
			ParamsA:       r.paramsA,
			ParamsB:       r.paramsB,
			Columns:       r.columns,
		},
	}
}

// entries builds every version for owner.
func (h *history) entries(owner string) []Entry {
	out := make([]Entry, h.versions())
	for i := range out {
		out[i] = h.entry(owner, i+1)
	}
	return out
}

func schemaOf(s ppclust.OwnerSecret) schema {
	return schema{
		keyVersion: s.Key.Version,
		pairs:      slices.Clone(s.Key.Pairs),
		nAngles:    len(s.Key.AnglesDeg),
		nilAngles:  s.Key.AnglesDeg == nil,
		norm:       s.Normalization,
		paramsA:    slices.Clone(s.ParamsA),
		paramsB:    slices.Clone(s.ParamsB),
		columns:    s.Columns,
	}
}

// matches reports whether secret has exactly this schema, down to the bit
// patterns of its parameters and nil-ness of its slices, so an entry built
// from the run encodes to the same JSON as secret.
func (sc *schema) matches(s ppclust.OwnerSecret) bool {
	return sc.keyVersion == s.Key.Version &&
		sc.nAngles == len(s.Key.AnglesDeg) && sc.nilAngles == (s.Key.AnglesDeg == nil) &&
		sc.norm == s.Normalization && sc.columns == s.Columns &&
		(sc.pairs == nil) == (s.Key.Pairs == nil) && slices.Equal(sc.pairs, s.Key.Pairs) &&
		sameBits(sc.paramsA, s.ParamsA) && sameBits(sc.paramsB, s.ParamsB)
}

// sameBits compares two float slices bit for bit, nil-ness included.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
