// Package keyring stores the OwnerSecrets a long-lived protection service
// manages on behalf of many data owners: named, versioned, rotatable.
//
// Every mutation appends a new version rather than overwriting — the
// paper's inversion guarantee (Section 4.2) only holds while the exact key
// that produced a release survives, so rotating an owner's key must keep
// prior versions recoverable for data released under them.
package keyring

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"ppclust"
)

// Errors returned by keyring stores.
var (
	// ErrNotFound reports a missing owner or version.
	ErrNotFound = errors.New("keyring: not found")
	// ErrExists reports a Create for an owner that already has a key.
	ErrExists = errors.New("keyring: owner already exists")
	// ErrBadName reports an invalid owner name.
	ErrBadName = errors.New("keyring: invalid owner name")
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// ValidName reports whether name is acceptable as an owner name.
func ValidName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// Entry is one stored secret version.
type Entry struct {
	// Owner names the data owner the secret belongs to.
	Owner string `json:"owner"`
	// Version counts from 1 and increases on every rotation.
	Version int `json:"version"`
	// CreatedAt records when this version was stored (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Secret is the owner's inversion secret. Anyone holding it can
	// reconstruct original attribute values from releases made under it.
	Secret ppclust.OwnerSecret `json:"secret"`
}

// Info is the secret-free listing of one owner, safe to expose over an
// administrative API.
type Info struct {
	Owner     string    `json:"owner"`
	Versions  int       `json:"versions"`
	Current   int       `json:"current"`
	CreatedAt time.Time `json:"created_at"`
	UpdatedAt time.Time `json:"updated_at"`
}

// Store is a keyring backend.
type Store interface {
	// Create stores version 1 for a new owner; ErrExists if known.
	Create(owner string, secret ppclust.OwnerSecret) (Entry, error)
	// CreateWithToken is Create plus the owner's credential hash, stored
	// atomically: either the owner exists with a credential afterwards or
	// not at all. This is what claims an owner name — callers racing on
	// the same name get ErrExists instead of splitting key and credential
	// between two clients.
	CreateWithToken(owner string, secret ppclust.OwnerSecret, tokenHash []byte) (Entry, error)
	// Get returns the current (highest) version for owner.
	Get(owner string) (Entry, error)
	// GetVersion returns a specific version for owner.
	GetVersion(owner string, version int) (Entry, error)
	// Rotate appends a new current version for an existing owner.
	Rotate(owner string, secret ppclust.OwnerSecret) (Entry, error)
	// Put is Create-or-Rotate: version 1 for a new owner, a rotation
	// otherwise. It is what a protect endpoint wants.
	Put(owner string, secret ppclust.OwnerSecret) (Entry, error)
	// List returns secret-free infos for every owner, sorted by name.
	List() ([]Info, error)
	// SetToken stores the hash of the owner's API credential, replacing
	// any previous one. The keyring only ever sees the hash — the
	// plaintext token is handed to the owner once and never persisted.
	SetToken(owner string, hash []byte) error
	// ClaimToken atomically claims an owner name with only a credential
	// hash and no key material yet — the entry point for owners who
	// upload datasets (and run jobs over them) before their first
	// protect ever fits a key. ErrExists if the owner already has a key
	// or a credential, so concurrent claimants race to exactly one
	// winner.
	ClaimToken(owner string, hash []byte) error
	// TokenHash returns the owner's stored credential hash; ErrNotFound
	// when the owner is unknown or has no credential on file.
	TokenHash(owner string) ([]byte, error)
	// Export returns an owner's complete transferable state (version
	// history plus credential hash) for ring replication and rebalance;
	// ErrNotFound for an unknown owner.
	Export(owner string) (OwnerExport, error)
	// ImportOwner merges an export last-writer-wins by keyring version:
	// a strictly newer history replaces the local one wholesale, an
	// older or equal one is ignored. Idempotent.
	ImportOwner(exp OwnerExport) error
	// Owners returns every known owner name — keyed or credential-only.
	Owners() ([]string, error)
}

// Memory is an in-process Store, safe for concurrent use. Each owner's
// versions are packed (see history) and entries are built on read: their
// slices share the store's memory and must not be modified, and CreatedAt
// comes back in UTC.
type Memory struct {
	mu     sync.RWMutex
	owners map[string]*history // never holds an empty history
	tokens map[string][]byte   // credential hash per owner
	now    func() time.Time
}

// NewMemory returns an empty in-memory keyring.
func NewMemory() *Memory {
	return &Memory{
		owners: map[string]*history{},
		tokens: map[string][]byte{},
		now:    func() time.Time { return time.Now().UTC() },
	}
}

// Create implements Store.
func (m *Memory) Create(owner string, secret ppclust.OwnerSecret) (Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.createLocked(owner, secret)
}

// CreateWithToken implements Store.
func (m *Memory) CreateWithToken(owner string, secret ppclust.OwnerSecret, tokenHash []byte) (Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, err := m.createLocked(owner, secret)
	if err != nil {
		return Entry{}, err
	}
	m.tokens[owner] = append([]byte(nil), tokenHash...)
	return e, nil
}

// Rotate implements Store.
func (m *Memory) Rotate(owner string, secret ppclust.OwnerSecret) (Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rotateLocked(owner, secret)
}

// Put implements Store.
func (m *Memory) Put(owner string, secret ppclust.OwnerSecret) (Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.putLocked(owner, secret)
}

// The *Locked variants require the caller to hold mu; the file store uses
// them to keep a whole mutate-persist-or-rollback transaction invisible to
// readers.

func (m *Memory) createLocked(owner string, secret ppclust.OwnerSecret) (Entry, error) {
	if err := ValidName(owner); err != nil {
		return Entry{}, err
	}
	if m.owners[owner] != nil {
		return Entry{}, fmt.Errorf("%w: %q", ErrExists, owner)
	}
	return m.append(owner, secret), nil
}

func (m *Memory) rotateLocked(owner string, secret ppclust.OwnerSecret) (Entry, error) {
	if err := ValidName(owner); err != nil {
		return Entry{}, err
	}
	if m.owners[owner] == nil {
		return Entry{}, fmt.Errorf("%w: owner %q", ErrNotFound, owner)
	}
	return m.append(owner, secret), nil
}

func (m *Memory) putLocked(owner string, secret ppclust.OwnerSecret) (Entry, error) {
	if err := ValidName(owner); err != nil {
		return Entry{}, err
	}
	return m.append(owner, secret), nil
}

// append adds the next version for owner; the caller holds mu.
func (m *Memory) append(owner string, secret ppclust.OwnerSecret) Entry {
	h := m.owners[owner]
	if h == nil {
		h = &history{}
		m.owners[owner] = h
	}
	return h.entry(owner, h.add(secret, m.now()))
}

// dropLastLocked removes version from the tail of owner's history — the
// rollback hook for a failed persist. The caller holds mu.
func (m *Memory) dropLastLocked(owner string, version int) {
	h := m.owners[owner]
	if h == nil || h.versions() != version {
		return
	}
	if version == 1 {
		delete(m.owners, owner)
		return
	}
	h.truncate(version - 1)
}

// ClaimToken implements Store.
func (m *Memory) ClaimToken(owner string, hash []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.claimTokenLocked(owner, hash)
}

func (m *Memory) claimTokenLocked(owner string, hash []byte) error {
	if err := ValidName(owner); err != nil {
		return err
	}
	if m.owners[owner] != nil || m.tokens[owner] != nil {
		return fmt.Errorf("%w: %q", ErrExists, owner)
	}
	m.tokens[owner] = append([]byte(nil), hash...)
	return nil
}

// SetToken implements Store.
func (m *Memory) SetToken(owner string, hash []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.setTokenLocked(owner, hash)
}

func (m *Memory) setTokenLocked(owner string, hash []byte) error {
	if err := ValidName(owner); err != nil {
		return err
	}
	if m.owners[owner] == nil {
		return fmt.Errorf("%w: owner %q", ErrNotFound, owner)
	}
	m.tokens[owner] = append([]byte(nil), hash...)
	return nil
}

// TokenHash implements Store.
func (m *Memory) TokenHash(owner string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h, ok := m.tokens[owner]
	if !ok {
		return nil, fmt.Errorf("%w: no credential for owner %q", ErrNotFound, owner)
	}
	return append([]byte(nil), h...), nil
}

// Get implements Store.
func (m *Memory) Get(owner string) (Entry, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h := m.owners[owner]
	if h == nil {
		return Entry{}, fmt.Errorf("%w: owner %q", ErrNotFound, owner)
	}
	return h.entry(owner, h.versions()), nil
}

// GetVersion implements Store.
func (m *Memory) GetVersion(owner string, version int) (Entry, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h := m.owners[owner]
	if h == nil {
		return Entry{}, fmt.Errorf("%w: owner %q", ErrNotFound, owner)
	}
	if version < 1 || version > h.versions() {
		return Entry{}, fmt.Errorf("%w: owner %q version %d", ErrNotFound, owner, version)
	}
	return h.entry(owner, version), nil
}

// List implements Store.
func (m *Memory) List() ([]Info, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Info, 0, len(m.owners))
	for owner, h := range m.owners {
		n := h.versions()
		out = append(out, Info{
			Owner:     owner,
			Versions:  n,
			Current:   n,
			CreatedAt: h.createdAt(1),
			UpdatedAt: h.createdAt(n),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out, nil
}
