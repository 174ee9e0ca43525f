package keyring

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ppclust"
)

func testSecret(angle float64) ppclust.OwnerSecret {
	return ppclust.OwnerSecret{
		Key: ppclust.Key{
			Pairs:     []ppclust.Pair{{I: 0, J: 1}},
			AnglesDeg: []float64{angle},
		},
		Normalization: ppclust.ZScore,
		ParamsA:       []float64{1, 2},
		ParamsB:       []float64{3, 4},
	}
}

func TestMemoryCreateGetRotate(t *testing.T) {
	m := NewMemory()
	if _, err := m.Get("alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
	e1, err := m.Create("alice", testSecret(10))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != 1 || e1.Owner != "alice" {
		t.Fatalf("unexpected entry %+v", e1)
	}
	if _, err := m.Create("alice", testSecret(20)); !errors.Is(err, ErrExists) {
		t.Fatalf("expected ErrExists, got %v", err)
	}
	e2, err := m.Rotate("alice", testSecret(20))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version != 2 {
		t.Fatalf("rotation produced version %d, want 2", e2.Version)
	}
	cur, err := m.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 2 || cur.Secret.Key.AnglesDeg[0] != 20 {
		t.Fatalf("Get returned %+v, want version 2 angle 20", cur)
	}
	old, err := m.GetVersion("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Secret.Key.AnglesDeg[0] != 10 {
		t.Fatal("version 1 secret not preserved across rotation")
	}
	if _, err := m.GetVersion("alice", 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound for future version, got %v", err)
	}
	if _, err := m.Rotate("bob", testSecret(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound rotating unknown owner, got %v", err)
	}
}

func TestMemoryPutAndList(t *testing.T) {
	m := NewMemory()
	if _, err := m.Put("zoe", testSecret(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Put("zoe", testSecret(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Put("abe", testSecret(3)); err != nil {
		t.Fatal(err)
	}
	infos, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Owner != "abe" || infos[1].Owner != "zoe" {
		t.Fatalf("unexpected listing %+v", infos)
	}
	if infos[1].Versions != 2 || infos[1].Current != 2 {
		t.Fatalf("zoe should have 2 versions, got %+v", infos[1])
	}
}

func TestBadNames(t *testing.T) {
	m := NewMemory()
	for _, name := range []string{"", ".hidden", "a b", "a/b", "x\n", string(make([]byte, 200))} {
		if _, err := m.Create(name, testSecret(1)); !errors.Is(err, ErrBadName) {
			t.Fatalf("name %q: expected ErrBadName, got %v", name, err)
		}
	}
}

func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("alice", testSecret(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Rotate("alice", testSecret(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Put("bob", testSecret(30)); err != nil {
		t.Fatal(err)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := st.Mode().Perm(); perm != 0o600 {
		t.Fatalf("keyring file has mode %o, want 0600", perm)
	}

	// Reopen and verify everything survived, including old versions.
	g, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := g.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 2 || cur.Secret.Key.AnglesDeg[0] != 20 {
		t.Fatalf("reloaded current entry %+v", cur)
	}
	old, err := g.GetVersion("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Secret.Key.AnglesDeg[0] != 10 {
		t.Fatal("reloaded store lost version 1")
	}
	infos, err := g.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("reloaded store lists %d owners, want 2", len(infos))
	}
	// Rotation continues from the persisted version counter.
	e, err := g.Rotate("alice", testSecret(40))
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 3 {
		t.Fatalf("post-reload rotation produced version %d, want 3", e.Version)
	}
}

func TestFileRejectsCorruptDocs(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Fatal("expected error for corrupt file")
	}
	wrongVersion := filepath.Join(dir, "v9.json")
	if err := os.WriteFile(wrongVersion, []byte(`{"version":9,"owners":{}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(wrongVersion); err == nil {
		t.Fatal("expected error for unsupported doc version")
	}
}

func TestConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := f.Put("shared", testSecret(float64(i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	cur, err := f.Get("shared")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 16 {
		t.Fatalf("expected 16 versions after concurrent puts, got %d", cur.Version)
	}
	g, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cur, err := g.Get("shared"); err != nil || cur.Version != 16 {
		t.Fatalf("reloaded: %+v, %v", cur, err)
	}
}

func TestFileRollbackOnPersistFailure(t *testing.T) {
	// A missing parent directory makes every persist fail (works even as
	// root, unlike permission tricks).
	f, err := OpenFile(filepath.Join(t.TempDir(), "missing", "keys.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("alice", testSecret(1)); err == nil {
		t.Fatal("expected persist failure")
	}
	// The failed entry must be rolled back: no phantom owner in memory.
	if _, err := f.Get("alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("phantom owner survived failed persist: %v", err)
	}
	// A retried Create must not report ErrExists.
	if _, err := f.Create("alice", testSecret(1)); errors.Is(err, ErrExists) {
		t.Fatal("failed create left ErrExists state behind")
	}
}

func TestTokens(t *testing.T) {
	m := NewMemory()
	hash := []byte{1, 2, 3, 4}
	// No credential may be attached to an unknown owner.
	if err := m.SetToken("alice", hash); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound for unknown owner, got %v", err)
	}
	if _, err := m.Create("alice", testSecret(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.TokenHash("alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound before SetToken, got %v", err)
	}
	if err := m.SetToken("alice", hash); err != nil {
		t.Fatal(err)
	}
	got, err := m.TokenHash("alice")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(hash) {
		t.Fatalf("TokenHash = %v, want %v", got, hash)
	}
	// The returned slice is a copy: mutating it must not corrupt the store.
	got[0] = 99
	again, _ := m.TokenHash("alice")
	if again[0] != 1 {
		t.Fatal("TokenHash returned the store's backing slice")
	}
	// Replacing a credential takes effect.
	if err := m.SetToken("alice", []byte{9}); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.TokenHash("alice"); string(got) != string([]byte{9}) {
		t.Fatal("SetToken did not replace the stored hash")
	}
}

func TestFileTokensPersist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("alice", testSecret(10)); err != nil {
		t.Fatal(err)
	}
	hash := []byte{5, 6, 7}
	if err := f.SetToken("alice", hash); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.TokenHash("alice")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(hash) {
		t.Fatalf("reloaded token hash = %v, want %v", got, hash)
	}
	// Keyrings written before tokens existed load fine with no credentials.
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"version":1,"owners":{}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(legacy); err != nil {
		t.Fatal(err)
	}
}

func TestFileTokenRollbackOnPersistFailure(t *testing.T) {
	f, err := OpenFile(filepath.Join(t.TempDir(), "missing", "keys.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Bypass persistence to get an owner in memory, then fail the token
	// persist: the in-memory credential must be rolled back.
	if _, err := f.mem.Create("alice", testSecret(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.SetToken("alice", []byte{1}); err == nil {
		t.Fatal("expected persist failure")
	}
	if _, err := f.TokenHash("alice"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("phantom credential survived failed persist: %v", err)
	}
}

func TestCreateWithToken(t *testing.T) {
	m := NewMemory()
	hash := []byte{1, 2, 3}
	e, err := m.CreateWithToken("alice", testSecret(10), hash)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 1 {
		t.Fatalf("version %d, want 1", e.Version)
	}
	if got, err := m.TokenHash("alice"); err != nil || string(got) != string(hash) {
		t.Fatalf("TokenHash after create = %v, %v", got, err)
	}
	// A second claim of the same name loses cleanly and must not replace
	// the winner's credential.
	if _, err := m.CreateWithToken("alice", testSecret(20), []byte{9}); !errors.Is(err, ErrExists) {
		t.Fatalf("expected ErrExists, got %v", err)
	}
	if got, _ := m.TokenHash("alice"); string(got) != string(hash) {
		t.Fatal("losing claim replaced the winner's credential")
	}
}

func TestFileCreateWithTokenAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hash := []byte{4, 5, 6}
	if _, err := f.CreateWithToken("alice", testSecret(10), hash); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := g.TokenHash("alice"); err != nil || string(got) != string(hash) {
		t.Fatalf("reloaded credential = %v, %v", got, err)
	}

	// A failed persist must leave neither the entry nor the credential:
	// an owner with a key but no token would be permanently locked out.
	broken, err := OpenFile(filepath.Join(t.TempDir(), "missing", "keys.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := broken.CreateWithToken("bob", testSecret(1), hash); err == nil {
		t.Fatal("expected persist failure")
	}
	if _, err := broken.Get("bob"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("phantom owner survived failed persist: %v", err)
	}
	if _, err := broken.TokenHash("bob"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("phantom credential survived failed persist: %v", err)
	}
}

func TestClaimToken(t *testing.T) {
	m := NewMemory()
	hash := []byte{7, 7, 7}
	if err := m.ClaimToken("", hash); !errors.Is(err, ErrBadName) {
		t.Fatalf("bad name: %v", err)
	}
	if err := m.ClaimToken("alice", hash); err != nil {
		t.Fatal(err)
	}
	// The claim wins the name: a second claim and a claim over an owner
	// with key material both lose with ErrExists.
	if err := m.ClaimToken("alice", []byte{8}); !errors.Is(err, ErrExists) {
		t.Fatalf("second claim: %v", err)
	}
	if _, err := m.Create("bob", testSecret(10)); err != nil {
		t.Fatal(err)
	}
	if err := m.ClaimToken("bob", hash); !errors.Is(err, ErrExists) {
		t.Fatalf("claim over keyed owner: %v", err)
	}
	// The claimed credential is live before any key exists…
	got, err := m.TokenHash("alice")
	if err != nil || string(got) != string(hash) {
		t.Fatalf("TokenHash after claim = %v, %v", got, err)
	}
	// …and the first key version keeps it (Create must not mint anew).
	if _, err := m.Create("alice", testSecret(20)); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.TokenHash("alice"); string(got) != string(hash) {
		t.Fatal("Create replaced a claimed credential")
	}
}

func TestFileClaimTokenPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	f1, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.ClaimToken("alice", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	// A token-only owner survives a restart with its credential intact.
	f2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f2.TokenHash("alice")
	if err != nil || string(got) != string([]byte{1, 2}) {
		t.Fatalf("reloaded claim = %v, %v", got, err)
	}
	if err := f2.ClaimToken("alice", []byte{3}); !errors.Is(err, ErrExists) {
		t.Fatalf("re-claim after reload: %v", err)
	}
}
