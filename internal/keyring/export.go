package keyring

// Owner export/import: the transfer format the ring layer uses to
// replicate an owner's keyring state to successor nodes and to move it
// during rebalancing. An export carries the full version history plus
// the credential hash — everything another node needs to serve the
// owner — and an import merges last-writer-wins by keyring version.
// Only the credential *hash* ever crosses the wire; plaintext tokens
// exist nowhere but in the owner's hands.

import (
	"bytes"
	"fmt"
)

// OwnerExport is one owner's complete transferable keyring state.
type OwnerExport struct {
	Owner string `json:"owner"`
	// Entries is the full version history, ascending and contiguous
	// from 1. Empty for owners claimed by credential only.
	Entries []Entry `json:"entries,omitempty"`
	// TokenHash is the owner's credential hash, nil when none is set.
	TokenHash []byte `json:"token_hash,omitempty"`
}

// MaxVersion returns the highest key version in the export (0 when the
// export carries only a credential).
func (e OwnerExport) MaxVersion() int {
	if len(e.Entries) == 0 {
		return 0
	}
	return e.Entries[len(e.Entries)-1].Version
}

func (e OwnerExport) validate() error {
	if err := ValidName(e.Owner); err != nil {
		return err
	}
	for i, en := range e.Entries {
		if en.Version != i+1 {
			return fmt.Errorf("keyring: import for %q has non-contiguous version %d at index %d", e.Owner, en.Version, i)
		}
		if en.Owner != e.Owner {
			return fmt.Errorf("keyring: import for %q carries entry for %q", e.Owner, en.Owner)
		}
	}
	if len(e.Entries) == 0 && e.TokenHash == nil {
		return fmt.Errorf("keyring: import for %q carries neither entries nor credential", e.Owner)
	}
	return nil
}

func (m *Memory) exportLocked(owner string) (OwnerExport, error) {
	h := m.owners[owner]
	th, hasCred := m.tokens[owner]
	if h == nil && !hasCred {
		return OwnerExport{}, fmt.Errorf("%w: owner %q", ErrNotFound, owner)
	}
	exp := OwnerExport{Owner: owner}
	if h != nil {
		exp.Entries = h.entries(owner)
	}
	if hasCred {
		exp.TokenHash = append([]byte(nil), th...)
	}
	return exp, nil
}

// Export implements Store.
func (m *Memory) Export(owner string) (OwnerExport, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.exportLocked(owner)
}

// importOwnerLocked merges exp last-writer-wins. Because versions are
// contiguous 1..n histories, "newer" means a strictly higher max
// version, and a newer history replaces the whole local one — splicing
// individual versions could interleave two divergent histories. The
// credential hash is adopted when the local owner has none or the
// incoming history is at least as new (covers rotation repairing a
// lost credential). It returns undo closures for File's rollback.
func (m *Memory) importOwnerLocked(exp OwnerExport) (changed bool, undo func(), err error) {
	if err := exp.validate(); err != nil {
		return false, nil, err
	}
	prev := m.owners[exp.Owner]
	prevToken, hadToken := m.tokens[exp.Owner]
	localMax := 0
	if prev != nil {
		localMax = prev.versions()
	}
	undo = func() {
		if prev != nil {
			m.owners[exp.Owner] = prev
		} else {
			delete(m.owners, exp.Owner)
		}
		if hadToken {
			m.tokens[exp.Owner] = prevToken
		} else {
			delete(m.tokens, exp.Owner)
		}
	}
	if exp.MaxVersion() > localMax {
		h, err := newHistory(exp.Entries)
		if err != nil {
			return false, nil, fmt.Errorf("keyring: import for %q: %w", exp.Owner, err)
		}
		m.owners[exp.Owner] = h
		changed = true
	}
	if exp.TokenHash != nil && (!hadToken || exp.MaxVersion() >= localMax) {
		if !hadToken || !bytes.Equal(prevToken, exp.TokenHash) {
			m.tokens[exp.Owner] = append([]byte(nil), exp.TokenHash...)
			changed = true
		}
	}
	return changed, undo, nil
}

// ImportOwner implements Store.
func (m *Memory) ImportOwner(exp OwnerExport) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, _, err := m.importOwnerLocked(exp)
	return err
}

// Owners implements Store: every owner name known to the keyring,
// whether by key entries or by credential claim alone. This is the
// rebalance work-list — dataset-only owners hold a credential claim, so
// the union covers everything an owner-scoped route can touch.
func (m *Memory) Owners() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := make(map[string]bool, len(m.owners)+len(m.tokens))
	for o := range m.owners {
		seen[o] = true
	}
	for o := range m.tokens {
		seen[o] = true
	}
	out := make([]string, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	return out, nil
}

// Export implements Store.
func (f *File) Export(owner string) (OwnerExport, error) { return f.mem.Export(owner) }

// ImportOwner implements Store with the same persist-or-rollback
// transaction as every other File mutation.
func (f *File) ImportOwner(exp OwnerExport) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mem.mu.Lock()
	defer f.mem.mu.Unlock()
	changed, undo, err := f.mem.importOwnerLocked(exp)
	if err != nil {
		return err
	}
	if !changed {
		return nil
	}
	if err := f.persistLocked(); err != nil {
		undo()
		return err
	}
	return nil
}

// Owners implements Store.
func (f *File) Owners() ([]string, error) { return f.mem.Owners() }
