package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Reading a flat snapshot. Every plane that consumes a snapshot — the
// Prometheus renderer, the pulse sampler, the cluster merge — reads it
// through ReadSnapshot, so the naming grammar lives here alone:
//
//   - `base_bucket{…,le="B"}`, with B a number or +Inf, is a bucket of
//     histogram `base`; `base_count{…}` and `base_sum{…}` belong to
//     that histogram when it has a bucket anywhere in the snapshot;
//   - any other name whose base ends in `_total` is a counter;
//   - everything else is a gauge, a `_bucket` without a numeric le
//     included.

// Kind is how a family's series read.
type Kind uint8

// The three kinds of family.
const (
	KindGauge Kind = iota
	KindCounter
	KindHistogram
)

// String is the kind's Prometheus TYPE word.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	}
	return "gauge"
}

// Family is one metric of a snapshot: every series of one name and kind.
type Family struct {
	// Name is the series' base name; a histogram's lacks the
	// _bucket/_count/_sum suffix.
	Name string
	Kind Kind
	// Series are a counter's or gauge's sorted by Name, a histogram's
	// by Labels.
	Series []Series
}

// Series is one label set of a Family.
type Series struct {
	// Name is a counter's or gauge's flat name.
	Name string
	// Labels is the label body; a histogram's lacks le.
	Labels string
	// Value is a counter's or gauge's value.
	Value int64
	// Buckets are a histogram's cumulative buckets, ascending by bound
	// with +Inf last; Count and Sum are its _count and _sum.
	Buckets    []BucketCount
	Count, Sum int64
}

// ReadSnapshot groups a flat snapshot into families sorted by name
// (then kind), each input series landing in exactly one of them. The
// input is not modified.
func ReadSnapshot(flat map[string]int64) []Family {
	type famKey struct {
		name string
		kind Kind
	}
	fams := map[famKey]*Family{}
	family := func(name string, kind Kind) *Family {
		k := famKey{name, kind}
		f := fams[k]
		if f == nil {
			f = &Family{Name: name, Kind: kind}
			fams[k] = f
		}
		return f
	}
	// Buckets first: they decide which _count and _sum series belong to
	// a histogram.
	hists := map[[2]string]*Series{} // (family, labels) → series
	hist := func(name, labels string) *Series {
		k := [2]string{name, labels}
		s := hists[k]
		if s == nil {
			s = &Series{Labels: labels}
			hists[k] = s
		}
		return s
	}
	type scalar struct {
		name, base, labels string
		v                  int64
	}
	var rest []scalar
	for name, v := range flat {
		base, labels := splitLabels(name)
		if fam, ok := strings.CutSuffix(base, "_bucket"); ok {
			if le, others, ok := LabelValue(labels, "le"); ok {
				if bound, err := strconv.ParseFloat(le, 64); err == nil && !math.IsNaN(bound) {
					s := hist(fam, others)
					s.Buckets = append(s.Buckets, BucketCount{UpperBound: bound, Count: v})
					continue
				}
			}
		}
		rest = append(rest, scalar{name, base, labels, v})
	}
	isHist := map[string]bool{}
	for k := range hists {
		isHist[k[0]] = true
	}
	for _, sc := range rest {
		if fam, ok := strings.CutSuffix(sc.base, "_count"); ok && isHist[fam] {
			hist(fam, sc.labels).Count += sc.v
			continue
		}
		if fam, ok := strings.CutSuffix(sc.base, "_sum"); ok && isHist[fam] {
			hist(fam, sc.labels).Sum += sc.v
			continue
		}
		kind := KindGauge
		if strings.HasSuffix(sc.base, "_total") {
			kind = KindCounter
		}
		f := family(sc.base, kind)
		f.Series = append(f.Series, Series{Name: sc.name, Labels: sc.labels, Value: sc.v})
	}
	for k, s := range hists {
		sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].UpperBound < s.Buckets[j].UpperBound })
		f := family(k[0], KindHistogram)
		f.Series = append(f.Series, *s)
	}

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		ss := f.Series
		if f.Kind == KindHistogram {
			sort.Slice(ss, func(i, j int) bool { return ss[i].Labels < ss[j].Labels })
		} else {
			sort.Slice(ss, func(i, j int) bool { return ss[i].Name < ss[j].Name })
		}
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// JoinName renders a flat series name from a base name and a label body
// (SplitName's inverse).
func JoinName(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

// BucketName renders the flat name of histogram family's bucket with
// the given upper bound, le after the series' labels.
func BucketName(family, labels string, bound float64) string {
	le := `le="` + strconv.FormatFloat(bound, 'g', -1, 64) + `"`
	if labels != "" {
		le = labels + "," + le
	}
	return family + "_bucket{" + le + "}"
}

// SplitName separates `base{labels}` into base and label body; labels
// is empty for a bare name.
func SplitName(name string) (base, labels string) { return splitLabels(name) }

func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// SplitLabelBody splits a label body ("a=\"x\",b=\"y,z\"") into its
// key="value" pairs, respecting commas inside quoted values.
func SplitLabelBody(labels string) []string {
	if labels == "" {
		return nil
	}
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '"':
			// Registry names never escape quotes inside values (%q would,
			// but label values here are routes/owners/node IDs), so a bare
			// toggle is faithful.
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	return append(out, labels[start:])
}

// LabelValue extracts the value of key from a label body, and the body
// with that pair removed.
func LabelValue(labels, key string) (value, rest string, ok bool) {
	parts := SplitLabelBody(labels)
	kept := make([]string, 0, len(parts))
	for _, p := range parts {
		k, v, found := strings.Cut(p, "=")
		if found && !ok && strings.TrimSpace(k) == key {
			ok = true
			value = strings.Trim(strings.TrimSpace(v), `"`)
			continue
		}
		kept = append(kept, p)
	}
	return value, strings.Join(kept, ","), ok
}
