package keyring

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"ppclust"
)

// File is a Store persisted as a single JSON document. Every mutation
// rewrites the file atomically (temp file + rename) with 0600 permissions —
// the keyring holds everything needed to invert every release, so it must
// never be group- or world-readable.
type File struct {
	path string
	mu   sync.Mutex
	mem  *Memory
}

// fileDoc is the on-disk schema, versioned for forward compatibility.
// Tokens holds per-owner credential hashes (never plaintext tokens); it is
// absent in documents written before credentials existed.
type fileDoc struct {
	Version int                `json:"version"`
	Owners  map[string][]Entry `json:"owners"`
	Tokens  map[string][]byte  `json:"tokens,omitempty"`
}

const fileDocVersion = 1

// OpenFile opens (or initializes) a file-backed keyring at path.
func OpenFile(path string) (*File, error) {
	f := &File{path: path, mem: NewMemory()}
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return f, nil
	case err != nil:
		return nil, fmt.Errorf("keyring: reading %s: %w", path, err)
	}
	var doc fileDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("keyring: parsing %s: %w", path, err)
	}
	if doc.Version != fileDocVersion {
		return nil, fmt.Errorf("keyring: %s has unsupported version %d", path, doc.Version)
	}
	for owner, vs := range doc.Owners {
		if err := ValidName(owner); err != nil {
			return nil, err
		}
		if len(vs) == 0 {
			continue
		}
		for i, e := range vs {
			if e.Version != i+1 {
				return nil, fmt.Errorf("keyring: %s: owner %q has non-contiguous version %d at index %d", path, owner, e.Version, i)
			}
		}
		h, err := newHistory(vs)
		if err != nil {
			return nil, fmt.Errorf("keyring: %s: owner %q: %w", path, owner, err)
		}
		f.mem.owners[owner] = h
	}
	for owner, h := range doc.Tokens {
		if err := ValidName(owner); err != nil {
			return nil, err
		}
		f.mem.tokens[owner] = append([]byte(nil), h...)
	}
	return f, nil
}

// Path returns the backing file path.
func (f *File) Path() string { return f.path }

// Create implements Store.
func (f *File) Create(owner string, secret ppclust.OwnerSecret) (Entry, error) {
	return f.mutate(func() (Entry, error) { return f.mem.createLocked(owner, secret) })
}

// CreateWithToken implements Store: entry and credential land in one
// persist, and a failed persist rolls both back.
func (f *File) CreateWithToken(owner string, secret ppclust.OwnerSecret, tokenHash []byte) (Entry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mem.mu.Lock()
	defer f.mem.mu.Unlock()
	e, err := f.mem.createLocked(owner, secret)
	if err != nil {
		return Entry{}, err
	}
	f.mem.tokens[owner] = append([]byte(nil), tokenHash...)
	if err := f.persistLocked(); err != nil {
		f.mem.dropLastLocked(owner, e.Version)
		delete(f.mem.tokens, owner)
		return Entry{}, err
	}
	return e, nil
}

// Rotate implements Store.
func (f *File) Rotate(owner string, secret ppclust.OwnerSecret) (Entry, error) {
	return f.mutate(func() (Entry, error) { return f.mem.rotateLocked(owner, secret) })
}

// Put implements Store.
func (f *File) Put(owner string, secret ppclust.OwnerSecret) (Entry, error) {
	return f.mutate(func() (Entry, error) { return f.mem.putLocked(owner, secret) })
}

// Get implements Store.
func (f *File) Get(owner string) (Entry, error) { return f.mem.Get(owner) }

// GetVersion implements Store.
func (f *File) GetVersion(owner string, version int) (Entry, error) {
	return f.mem.GetVersion(owner, version)
}

// List implements Store.
func (f *File) List() ([]Info, error) { return f.mem.List() }

// SetToken implements Store with the same persist-or-rollback transaction
// as entry mutations: a credential hash a client was told about is on disk.
func (f *File) SetToken(owner string, hash []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mem.mu.Lock()
	defer f.mem.mu.Unlock()
	prev, had := f.mem.tokens[owner]
	if err := f.mem.setTokenLocked(owner, hash); err != nil {
		return err
	}
	if err := f.persistLocked(); err != nil {
		if had {
			f.mem.tokens[owner] = prev
		} else {
			delete(f.mem.tokens, owner)
		}
		return err
	}
	return nil
}

// ClaimToken implements Store with persist-or-rollback: a claimed name is
// on disk before the claimant learns it won.
func (f *File) ClaimToken(owner string, hash []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mem.mu.Lock()
	defer f.mem.mu.Unlock()
	if err := f.mem.claimTokenLocked(owner, hash); err != nil {
		return err
	}
	if err := f.persistLocked(); err != nil {
		delete(f.mem.tokens, owner)
		return err
	}
	return nil
}

// TokenHash implements Store.
func (f *File) TokenHash(owner string) ([]byte, error) { return f.mem.TokenHash(owner) }

// mutate runs op-persist-or-rollback as one transaction under the memory
// store's write lock, so readers never observe a version that is not yet
// on disk: a failed persist rolls the entry back before the lock is
// released, and a version number handed to a client is durable. Mutations
// are rare for a keyring, so holding the lock across the disk write is an
// acceptable trade for that guarantee. The file-level lock additionally
// serializes persists so temp-file renames cannot interleave out of order.
func (f *File) mutate(op func() (Entry, error)) (Entry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mem.mu.Lock()
	defer f.mem.mu.Unlock()
	e, err := op()
	if err != nil {
		return Entry{}, err
	}
	if err := f.persistLocked(); err != nil {
		f.mem.dropLastLocked(e.Owner, e.Version)
		return Entry{}, err
	}
	return e, nil
}

// persistLocked writes the whole keyring atomically with 0600 permissions.
// The caller holds f.mem.mu.
func (f *File) persistLocked() error {
	owners := make(map[string][]Entry, len(f.mem.owners))
	for owner, h := range f.mem.owners {
		owners[owner] = h.entries(owner)
	}
	doc := fileDoc{Version: fileDocVersion, Owners: owners, Tokens: f.mem.tokens}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("keyring: encoding: %w", err)
	}
	dir := filepath.Dir(f.path)
	tmp, err := os.CreateTemp(dir, ".keyring-*.json")
	if err != nil {
		return fmt.Errorf("keyring: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := tmp.Chmod(0o600); err != nil {
		tmp.Close()
		return fmt.Errorf("keyring: chmod: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("keyring: writing: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("keyring: closing: %w", err)
	}
	if err := os.Rename(tmp.Name(), f.path); err != nil {
		return fmt.Errorf("keyring: replacing %s: %w", f.path, err)
	}
	return nil
}
