package datastore

// Crash-safety of the Dir store's segment+manifest layout: reopening
// after a simulated crash (truncated segment file, partially written
// manifest line) must recover the longest prefix of complete batches
// instead of failing the dataset — and never fail the whole store.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ppclust/internal/matrix"
)

func openTestDir(t *testing.T, root string) *Dir {
	t.Helper()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// putBlocked stores rows split into 16-row blocks for owner/name.
func putBlocked(t *testing.T, d *Dir, owner, name string, rows int, labeled bool) {
	t.Helper()
	if err := d.Put(buildDataset(t, owner, name, rows, labeled)); err != nil {
		t.Fatal(err)
	}
}

func TestDirReopenRecoversTruncatedSegment(t *testing.T) {
	root := t.TempDir()
	d := openTestDir(t, root)
	putBlocked(t, d, "alice", "d1", 40, true) // blocks of 16: 16+16+8

	// Crash: the last segment lost half its bytes.
	seg := filepath.Join(root, "alice", "d1", "seg-000003.dat")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDir(t, root)
	got, err := d2.Get("alice", "d1")
	if err != nil {
		t.Fatalf("truncated segment must not lose the dataset: %v", err)
	}
	if got.Rows != 32 || got.NumBlocks() != 2 {
		t.Fatalf("recovered %d rows in %d blocks, want 32 in 2", got.Rows, got.NumBlocks())
	}
	if len(got.Labels()) != 32 {
		t.Fatalf("labels = %d, want 32", len(got.Labels()))
	}
	m, err := got.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if m.At(i, 0) != float64(i) {
			t.Fatalf("row %d corrupted after recovery", i)
		}
	}
}

func TestDirReopenRecoversPartialManifestLine(t *testing.T) {
	root := t.TempDir()
	d := openTestDir(t, root)
	putBlocked(t, d, "alice", "d1", 40, false)

	// Crash: a new batch line was half-written (no trailing newline, cut
	// mid-JSON), as an appending ingest dying mid-write would leave it.
	mf := filepath.Join(root, "alice", "d1", "manifest")
	f, err := os.OpenFile(mf, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seg":"seg-000004.dat","ro`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := openTestDir(t, root)
	got, err := d2.Get("alice", "d1")
	if err != nil {
		t.Fatalf("partial manifest line must not lose the dataset: %v", err)
	}
	if got.Rows != 40 {
		t.Fatalf("recovered %d rows, want all 40 committed ones", got.Rows)
	}
}

func TestDirReopenRecoversMissingSegment(t *testing.T) {
	root := t.TempDir()
	d := openTestDir(t, root)
	putBlocked(t, d, "alice", "d1", 40, false)
	if err := os.Remove(filepath.Join(root, "alice", "d1", "seg-000002.dat")); err != nil {
		t.Fatal(err)
	}
	// A hole in the middle drops that batch and everything after it: the
	// recovered dataset is the longest consistent prefix.
	d2 := openTestDir(t, root)
	got, err := d2.Get("alice", "d1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 16 {
		t.Fatalf("recovered %d rows, want 16", got.Rows)
	}
}

func TestDirReopenSkipsUnrecoverableDataset(t *testing.T) {
	root := t.TempDir()
	d := openTestDir(t, root)
	putBlocked(t, d, "alice", "good", 8, false)
	putBlocked(t, d, "alice", "bad", 8, false)

	// The bad dataset's manifest header itself is garbage: nothing to
	// recover — but the store (and the good dataset) must still open.
	if err := os.WriteFile(filepath.Join(root, "alice", "bad", "manifest"), []byte("{half a hea"), 0o600); err != nil {
		t.Fatal(err)
	}
	d2 := openTestDir(t, root)
	if _, err := d2.Get("alice", "good"); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Get("alice", "bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unrecoverable dataset should be absent, got %v", err)
	}

	// The leftover directory must not poison the name: a fresh Put under
	// it reclaims the on-disk space and round-trips through a reopen.
	putBlocked(t, d2, "alice", "bad", 8, false)
	d3 := openTestDir(t, root)
	got, err := d3.Get("alice", "bad")
	if err != nil || got.Rows != 8 {
		t.Fatalf("reclaimed dataset = %+v, %v", got, err)
	}
}

func TestDirReopenSweepsTempDirs(t *testing.T) {
	root := t.TempDir()
	d := openTestDir(t, root)
	putBlocked(t, d, "alice", "d1", 8, false)

	// Crash mid-persist: a temp dir with a segment but no committed
	// rename. Reopen must ignore and remove it.
	tmp := filepath.Join(root, "alice", ".dataset-crashed")
	if err := os.MkdirAll(tmp, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "seg-000001.dat"), []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	d2 := openTestDir(t, root)
	metas, err := d2.List("alice")
	if err != nil || len(metas) != 1 {
		t.Fatalf("list = %v, %v", metas, err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("leftover temp dir must be swept at open")
	}
}

// TestOpenDirRefusesOneDocumentDataset: a dataset in the one-document
// format that preceded segments (one JSON document per dataset) fails
// OpenDir with its path in the error — never loaded, never skipped
// without a word — and the file is left where it was.
func TestOpenDirRefusesOneDocumentDataset(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "alice"), 0o700); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "alice", "old.json")
	doc := `{"version":1,"meta":{"owner":"alice","name":"old","rows":2,"cols":2,"attrs":["x","y"],"labeled":false,"created_at":"2025-01-01T00:00:00Z"},"data":[1,2,3,4]}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(root); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenDir = %v, want an error naming %s", err, path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("the refused document must stay in place: %v", err)
	}
}

// TestShardedConcurrentIngest drives many owners through one store
// concurrently — run under -race this is the satellite's data-race check
// for the sharded index and the shared cache.
func TestShardedConcurrentIngest(t *testing.T) {
	for _, store := range []struct {
		name string
		s    Store
	}{
		{"memory", NewSharded(4)},
		{"dir", mustOpenDirOptions(t, DirOptions{Shards: 4, CacheBytes: 1 << 20})},
	} {
		t.Run(store.name, func(t *testing.T) {
			const owners, setsPer = 8, 4
			var wg sync.WaitGroup
			errc := make(chan error, owners*setsPer)
			for o := 0; o < owners; o++ {
				owner := fmt.Sprintf("owner%02d", o)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < setsPer; n++ {
						b, err := NewBuilder(owner, fmt.Sprintf("d%02d", n), []string{"x", "y"})
						if err != nil {
							errc <- err
							return
						}
						b.SetBlockRows(8)
						for i := 0; i < 33; i++ {
							if err := b.Append([]float64{float64(i), float64(i * i)}); err != nil {
								errc <- err
								return
							}
						}
						ds, err := b.Finish(time.Now())
						if err != nil {
							errc <- err
							return
						}
						if err := store.s.Put(ds); err != nil {
							errc <- err
							return
						}
						// Interleave reads with other owners' writes.
						got, err := store.s.Get(owner, ds.Name)
						if err != nil {
							errc <- err
							return
						}
						if _, err := got.Matrix(); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			for o := 0; o < owners; o++ {
				metas, err := store.s.List(fmt.Sprintf("owner%02d", o))
				if err != nil || len(metas) != setsPer {
					t.Fatalf("owner%02d: %d datasets, %v", o, len(metas), err)
				}
			}
		})
	}
}

func mustOpenDirOptions(t *testing.T, opts DirOptions) *Dir {
	t.Helper()
	d, err := OpenDirOptions(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBlockCacheWarmReadsAndInvalidation(t *testing.T) {
	// Budget holds all 3 segments (16 rows × 3 cols = 384 bytes each).
	d := mustOpenDirOptions(t, DirOptions{Shards: 2, CacheBytes: 4096})
	putBlocked(t, d, "alice", "d1", 48, false) // 3 segments
	d.Cache().Clear()

	ds, err := d.Get("alice", "d1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Matrix(); err != nil { // 3 cold loads
		t.Fatal(err)
	}
	st := d.Cache().Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("stats after cold read = %+v, want 3 misses", st)
	}
	if _, err := ds.Matrix(); err != nil { // warm: all hits
		t.Fatal(err)
	}
	if st2 := d.Cache().Stats(); st2.Hits != 3 || st2.Misses != 3 {
		t.Fatalf("stats after warm read = %+v, want 3 hits", st2)
	}

	// Delete invalidates the dataset's cached blocks.
	if err := d.Delete("alice", "d1"); err != nil {
		t.Fatal(err)
	}
	if st3 := d.Cache().Stats(); st3.Entries != 0 {
		t.Fatalf("entries survive delete: %+v", st3)
	}
}

func TestBlockCacheStaysInBudget(t *testing.T) {
	// Budget fits ~2 of the 3 blocks: reads must evict, never exceed.
	d := mustOpenDirOptions(t, DirOptions{Shards: 2, CacheBytes: 800})
	putBlocked(t, d, "alice", "d1", 48, false)
	ds, err := d.Get("alice", "d1")
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		if _, err := ds.Matrix(); err != nil {
			t.Fatal(err)
		}
		st := d.Cache().Stats()
		if st.Bytes > st.MaxBytes {
			t.Fatalf("pass %d: cache over budget: %+v", pass, st)
		}
	}
	if st := d.Cache().Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions under a tight budget: %+v", st)
	}
}

// TestWriteThroughCountsBlockCapacity: a block written through on ingest
// is accounted at its backing array's capacity, and a Builder's partial
// last block keeps no room beyond its rows — a 2 000×5 dataset's one
// block pins the 80 000 B of its values, not the 327 680 B of
// DefaultBlockRows rows.
func TestWriteThroughCountsBlockCapacity(t *testing.T) {
	d := openTestDir(t, t.TempDir())
	b, err := NewBuilder("alice", "d", []string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := b.Append([]float64{float64(i), 1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Finish(time.Unix(1700000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(ds); err != nil {
		t.Fatal(err)
	}
	var backing int64
	err = ds.Blocks(func(m *matrix.Dense) error {
		backing += int64(cap(m.Raw())) * 8
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Cache().Stats().Bytes; got != backing || backing != 2000*5*8 {
		t.Fatalf("cache accounts %d B for a block whose backing array is %d B, want %d", got, backing, 2000*5*8)
	}
}

// TestBlockCacheSingleFlight: concurrent GetOrLoad of one key runs the
// loader exactly once; everyone else waits and shares the result.
func TestBlockCacheSingleFlight(t *testing.T) {
	c := NewBlockCache(1 << 20)
	var mu sync.Mutex
	loads := 0
	block := matrix.NewDense(1, 1, []float64{42})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.GetOrLoad("k", func() (*matrix.Dense, error) {
				mu.Lock()
				loads++
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				return block, nil
			})
			if err != nil || got.At(0, 0) != 42 {
				t.Errorf("got %v, %v", got, err)
			}
		}()
	}
	wg.Wait()
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	if st := c.Stats(); st.Hits != 7 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
