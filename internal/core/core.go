// Package core implements the paper's primary contribution: the
// Rotation-Based Transformation (RBT) of Oliveira & Zaïane (VLDB SDM 2004),
// including the pairwise-security threshold (PST), the analytic
// variance-vs-angle curves, security-range computation, the RBT algorithm
// of Section 4.3, and invertible transformation keys for the data owner.
//
// The package operates on *normalized* data matrices (Step 1 of Figure 1 is
// performed by internal/norm or the ppclust facade). All angles are in
// degrees, clockwise, per Eq. (1).
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"ppclust/internal/stats"
)

// Errors reported by the RBT pipeline.
var (
	// ErrEmptySecurityRange means no angle satisfies the pair's PST; the
	// administrator must lower the thresholds (Section 5.2: "the lower the
	// pairwise-security threshold ... the broader the security range").
	ErrEmptySecurityRange = errors.New("core: empty security range; lower the pairwise-security threshold")
	// ErrBadPair reports an invalid attribute pair.
	ErrBadPair = errors.New("core: invalid attribute pair")
	// ErrBadThreshold reports a non-positive PST, which Definition 2
	// forbids (ρ1 > 0 and ρ2 > 0).
	ErrBadThreshold = errors.New("core: pairwise-security threshold must be positive")
	// ErrBadInput reports malformed input data.
	ErrBadInput = errors.New("core: invalid input")
)

// Pair is an ordered attribute pair (I, J): column I plays the role of Ai
// and column J of Aj in Definition 2. Order matters — it fixes the rotation
// direction — and is part of the transformation key.
type Pair struct {
	I int `json:"i"`
	J int `json:"j"`
}

// Valid reports whether the pair addresses distinct columns of an n-column
// matrix.
func (p Pair) Valid(n int) error {
	if p.I < 0 || p.I >= n || p.J < 0 || p.J >= n {
		return fmt.Errorf("%w: (%d,%d) out of range for %d attributes", ErrBadPair, p.I, p.J, n)
	}
	if p.I == p.J {
		return fmt.Errorf("%w: indices must differ, got (%d,%d)", ErrBadPair, p.I, p.J)
	}
	return nil
}

// PST is the pairwise-security threshold of Definition 2: the transformed
// pair must satisfy Var(Ai - Ai') >= Rho1 and Var(Aj - Aj') >= Rho2.
type PST struct {
	Rho1 float64 `json:"rho1"`
	Rho2 float64 `json:"rho2"`
}

// Valid enforces Definition 2's ρ1 > 0, ρ2 > 0.
func (t PST) Valid() error {
	if t.Rho1 <= 0 || t.Rho2 <= 0 {
		return fmt.Errorf("%w: got (%g, %g)", ErrBadThreshold, t.Rho1, t.Rho2)
	}
	return nil
}

// Options configures an RBT transformation.
type Options struct {
	// Pairs lists the ordered attribute pairs to distort, in order. When
	// nil, RoundRobinPairs is used. With an odd attribute count the last
	// pair must reuse one already-distorted attribute (Section 4.3 Step 1);
	// Validate enforces coverage of every attribute.
	Pairs []Pair
	// Thresholds holds one PST per pair. A single-element slice is
	// broadcast to every pair.
	Thresholds []PST
	// Rand supplies the angle randomness. When nil, a fixed-seed source is
	// used so runs are reproducible by default; production callers should
	// pass their own source (e.g. seeded from crypto/rand).
	Rand *rand.Rand
	// FixedAngles bypasses random selection with explicit angles in
	// degrees, one per pair. The angles are still checked against the
	// pair's PST. This is how the worked example's θ1 = 312.47,
	// θ2 = 147.29 are reproduced exactly.
	FixedAngles []float64
	// Denominator selects the variance convention for PST checks. The
	// paper prints sample (N-1) variances, which is the zero value.
	Denominator stats.Denominator
}

// RoundRobinPairs groups attributes (0,1), (2,3), ... For odd n the last
// attribute is paired as (n-1, 0): attribute 0 is already distorted by the
// first pair, satisfying the algorithm's Step 1 rule.
func RoundRobinPairs(n int) []Pair {
	if n < 2 {
		return nil
	}
	var pairs []Pair
	for i := 0; i+1 < n; i += 2 {
		pairs = append(pairs, Pair{I: i, J: i + 1})
	}
	if n%2 == 1 {
		pairs = append(pairs, Pair{I: n - 1, J: 0})
	}
	return pairs
}

// RandomPairs returns a random perfect grouping of the n attributes. For
// odd n, the leftover attribute is paired with a uniformly chosen
// already-distorted one. The result covers every attribute exactly once as
// a "fresh" member.
func RandomPairs(n int, rng *rand.Rand) []Pair {
	if n < 2 {
		return nil
	}
	perm := rng.Perm(n)
	var pairs []Pair
	for i := 0; i+1 < len(perm); i += 2 {
		pairs = append(pairs, Pair{I: perm[i], J: perm[i+1]})
	}
	if n%2 == 1 {
		last := perm[n-1]
		partner := perm[rng.Intn(n-1)]
		pairs = append(pairs, Pair{I: last, J: partner})
	}
	return pairs
}

// ValidatePairs checks that pairs are individually valid for n attributes
// and that, taken together, they cover every attribute at least once — the
// coverage guarantee of Step 1 (every confidential attribute must be
// distorted).
func ValidatePairs(pairs []Pair, n int) error {
	if len(pairs) == 0 {
		return fmt.Errorf("%w: no pairs", ErrBadPair)
	}
	covered := make([]bool, n)
	for _, p := range pairs {
		if err := p.Valid(n); err != nil {
			return err
		}
		covered[p.I] = true
		covered[p.J] = true
	}
	for j, ok := range covered {
		if !ok {
			return fmt.Errorf("%w: attribute %d is never distorted", ErrBadPair, j)
		}
	}
	return nil
}
