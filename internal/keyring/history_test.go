package keyring

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"ppclust"
)

// wideSecret is a 32-column z-score secret over 16 round-robin pairs, the
// shape one owner's refits produce: the same pairs and parameters each
// time, new angles.
func wideSecret(angle float64) ppclust.OwnerSecret {
	s := ppclust.OwnerSecret{Normalization: ppclust.ZScore, Columns: 32}
	for j := 0; j < 32; j++ {
		s.ParamsA = append(s.ParamsA, float64(j)+0.5)
		s.ParamsB = append(s.ParamsB, 1/float64(j+3))
	}
	for i := 0; i < 32; i += 2 {
		s.Key.Pairs = append(s.Key.Pairs, ppclust.Pair{I: i, J: i + 1})
		s.Key.AnglesDeg = append(s.Key.AnglesDeg, angle+float64(i))
	}
	return s
}

// historySecrets is a history with schema changes mid-way: parameters
// that differ only in the sign of zero, a different pair count, a
// normalization without parameters, a key format version, and nil versus
// empty slices, each of which must come back exactly as stored.
func historySecrets() []ppclust.OwnerSecret {
	negZero := wideSecret(10)
	negZero.ParamsA[0] = math.Copysign(0, -1)
	posZero := wideSecret(11)
	posZero.ParamsA[0] = 0
	none := ppclust.OwnerSecret{
		Key:           ppclust.Key{Pairs: []ppclust.Pair{{I: 0, J: 1}}, AnglesDeg: []float64{3}},
		Normalization: "none",
		Columns:       2,
	}
	emptyParams := none
	emptyParams.ParamsA, emptyParams.ParamsB = []float64{}, []float64{}
	keyed := testSecret(7)
	keyed.Key.Version = 1
	noAngles := testSecret(8)
	noAngles.Key.Pairs, noAngles.Key.AnglesDeg = []ppclust.Pair{}, nil
	emptyAngles := noAngles
	emptyAngles.Key.AnglesDeg = []float64{}
	return []ppclust.OwnerSecret{
		wideSecret(1), wideSecret(2), wideSecret(3),
		testSecret(4), testSecret(5),
		negZero, posZero, posZero,
		none, none, emptyParams,
		keyed, testSecret(7),
		noAngles, emptyAngles, noAngles,
		wideSecret(20), wideSecret(21),
	}
}

// steppedClock returns a clock that advances 1.5 s per reading from a
// fixed UTC instant with a nanosecond part.
func steppedClock() func() time.Time {
	t := time.Date(2026, 3, 4, 5, 6, 7, 123456789, time.UTC)
	return func() time.Time {
		t = t.Add(1500 * time.Millisecond)
		return t
	}
}

// exact renders an entry so that any difference in a float's bits, a
// slice's nil-ness or the time shows.
func exact(e Entry) string { return fmt.Sprintf("%#v", e) }

func checkHistory(t *testing.T, where string, s Store, want []Entry) {
	t.Helper()
	for _, w := range want {
		got, err := s.GetVersion(w.Owner, w.Version)
		if err != nil {
			t.Fatalf("%s: version %d: %v", where, w.Version, err)
		}
		if exact(got) != exact(w) {
			t.Fatalf("%s: version %d\n got %s\nwant %s", where, w.Version, exact(got), exact(w))
		}
	}
	cur, err := s.Get(want[0].Owner)
	if err != nil || exact(cur) != exact(want[len(want)-1]) {
		t.Fatalf("%s: Get = %s, %v; want version %d", where, exact(cur), err, len(want))
	}
}

// Every version round-trips bit-exactly through Get/GetVersion,
// Export→ImportOwner and a File persist→OpenFile, and the file is the same
// JSON document the unpacked []Entry history encoded to.
func TestHistoryRoundTripsBitExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.json")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f.mem.now = steppedClock()
	var want []Entry
	for i, s := range historySecrets() {
		var e Entry
		if i == 0 {
			e, err = f.CreateWithToken("alice", s, []byte("hash"))
		} else {
			e, err = f.Rotate("alice", s)
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Owner: "alice", Version: i + 1, CreatedAt: e.CreatedAt, Secret: s})
		if exact(e) != exact(want[i]) {
			t.Fatalf("Rotate returned %s, want %s", exact(e), exact(want[i]))
		}
	}
	if runs := len(f.mem.owners["alice"].runs); runs != 12 {
		t.Fatalf("history has %d runs, want 12", runs)
	}
	checkHistory(t, "memory", f, want)

	exp, err := f.Export("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if exact(exp.Entries[i]) != exact(want[i]) {
			t.Fatalf("export version %d = %s", i+1, exact(exp.Entries[i]))
		}
	}
	dst := NewMemory()
	if err := dst.ImportOwner(exp); err != nil {
		t.Fatal(err)
	}
	checkHistory(t, "import", dst, want)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unpacked, err := json.MarshalIndent(fileDoc{
		Version: fileDocVersion,
		Owners:  map[string][]Entry{"alice": want},
		Tokens:  map[string][]byte{"alice": []byte("hash")},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(unpacked) {
		t.Fatalf("keyring file differs from the unpacked encoding:\n%s\nwant\n%s", raw, unpacked)
	}
	g, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The key's JSON encoding stamps its format version, as it always has.
	for i := range want {
		want[i].Secret.Key.Version = 1
	}
	checkHistory(t, "reopened file", g, want)
}

// A rotation whose persist fails rolls back, including the run it opened;
// the next rotation reuses the version number, and entries handed out
// before the rollback, the retry or a later import never change.
func TestHistoryRollbackThenRotate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ring")
	if err := os.Mkdir(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(filepath.Join(dir, "keys.json"))
	if err != nil {
		t.Fatal(err)
	}
	f.mem.now = steppedClock()
	if _, err := f.Create("alice", wideSecret(1)); err != nil {
		t.Fatal(err)
	}
	v2, err := f.Rotate("alice", wideSecret(2))
	if err != nil {
		t.Fatal(err)
	}
	held, err := f.GetVersion("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	heldV2, heldV1 := exact(v2), exact(held)

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for _, s := range []ppclust.OwnerSecret{wideSecret(3), testSecret(3)} { // same schema, then a new run
		if _, err := f.Rotate("alice", s); err == nil {
			t.Fatal("expected persist failure")
		}
		if cur, err := f.Get("alice"); err != nil || cur.Version != 2 {
			t.Fatalf("after failed rotation: %+v, %v", cur, err)
		}
	}
	if runs := len(f.mem.owners["alice"].runs); runs != 1 {
		t.Fatalf("rolled-back run survived: %d runs", runs)
	}
	if err := os.Mkdir(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	v3, err := f.Rotate("alice", wideSecret(4))
	if err != nil {
		t.Fatal(err)
	}
	if v3.Version != 3 || v3.Secret.Key.AnglesDeg[0] != 4 {
		t.Fatalf("rotation after rollback = %+v", v3)
	}

	newer := NewMemory()
	for i := 0; i < 5; i++ {
		if _, err := newer.Put("alice", testSecret(float64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	exp, err := newer.Export("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ImportOwner(exp); err != nil {
		t.Fatal(err)
	}
	if cur, _ := f.Get("alice"); cur.Version != 5 || cur.Secret.Key.AnglesDeg[0] != 104 {
		t.Fatalf("import did not replace the history: %+v", cur)
	}
	if exact(v2) != heldV2 || exact(held) != heldV1 {
		t.Fatal("an entry handed out earlier changed under a later rotation, rollback or import")
	}
	if v3.Secret.Key.AnglesDeg[0] != 4 {
		t.Fatal("an entry handed out earlier changed under a later import")
	}
}

// A same-schema version costs its angles and timestamp: at 32 columns,
// 16 angles and one int64, well under the ~1 kB an unpacked Entry took.
func TestHistoryHeapPerVersion(t *testing.T) {
	const versions = 10000
	m := NewMemory()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < versions; i++ {
		if _, err := m.Put("alice", wideSecret(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perVersion := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / versions
	runtime.KeepAlive(m)
	t.Logf("%.0f B of live heap per version", perVersion)
	if perVersion > 200 {
		t.Fatalf("%.0f B of live heap per same-schema version, want <= 200", perVersion)
	}
}

// Readers build entries from the packed history while writers append to
// it and import over it; with -race this checks the history is only
// touched under the store's lock.
func TestHistoryConcurrentReadersAndWriters(t *testing.T) {
	m := NewMemory()
	if _, err := m.Create("alice", wideSecret(0)); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s := wideSecret(float64(w*perWriter + i))
				if i%10 == 0 {
					s = testSecret(float64(i)) // a new run now and then
				}
				if _, err := m.Rotate("alice", s); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur, err := m.Get("alice")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := m.GetVersion("alice", 1+cur.Version/2); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Export("alice"); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.List(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	exp, err := m.Export("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exp.MaxVersion(), 1+writers*perWriter; got != want {
		t.Fatalf("history has %d versions, want %d", got, want)
	}
	dst := NewMemory()
	if err := dst.ImportOwner(exp); err != nil {
		t.Fatal(err)
	}
	checkHistory(t, "import of the concurrent history", dst, exp.Entries)
}

// Creation times are held as unix nanoseconds: the zero time round-trips,
// and a loaded time outside the representable range is rejected rather
// than silently changed.
func TestHistoryCreatedAtRange(t *testing.T) {
	exp := OwnerExport{Owner: "alice", Entries: []Entry{{Owner: "alice", Version: 1, Secret: testSecret(1)}}}
	m := NewMemory()
	if err := m.ImportOwner(exp); err != nil {
		t.Fatal(err)
	}
	if e, err := m.Get("alice"); err != nil || !e.CreatedAt.IsZero() {
		t.Fatalf("zero created_at came back as %v, %v", e.CreatedAt, err)
	}
	exp.Entries[0].CreatedAt = time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := NewMemory().ImportOwner(exp); err == nil {
		t.Fatal("import accepted a created_at outside the unix-nanosecond range")
	}
	path := filepath.Join(t.TempDir(), "keys.json")
	raw, err := json.Marshal(fileDoc{Version: fileDocVersion, Owners: map[string][]Entry{"alice": exp.Entries}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Fatal("OpenFile accepted a created_at outside the unix-nanosecond range")
	}
}
