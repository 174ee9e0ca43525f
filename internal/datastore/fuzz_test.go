package datastore

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenDirManifest reopens a store holding a well-formed dataset the
// store wrote itself beside alice/d1, whose manifest is the fuzzed bytes
// and whose one segment file, seg-000001.dat, is segLen bytes long. For
// any input OpenDir neither panics nor fails, and the good dataset loads
// whole. If alice/d1 loads, it has one attribute name per column, its
// Rows is the sum of its batches (and of its labels, when labeled), and
// each of its blocks reads as exactly its rows × Cols values or as an
// error. Seeds (internal/datastore/testdata/fuzz) are manifests the
// store wrote, labeled and unlabeled, a batch whose row count overflows
// the size check, and a header with fewer names than columns.
func FuzzOpenDirManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest []byte, segLen uint16) {
		root := t.TempDir()
		putBlocked(t, openTestDir(t, root), "alice", "good", 20, true)
		dir := filepath.Join(root, "alice", "d1")
		if err := os.MkdirAll(dir, 0o700); err != nil {
			t.Fatal(err)
		}
		seg := make([]byte, segLen)
		for i := range seg {
			seg[i] = byte(i)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.dat"), seg, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o600); err != nil {
			t.Fatal(err)
		}

		d, err := OpenDir(root)
		if err != nil {
			t.Fatalf("OpenDir failed on one fuzzed dataset: %v", err)
		}
		good, err := d.Get("alice", "good")
		if err != nil || good.Rows != 20 || len(good.Labels()) != 20 {
			t.Fatalf("the well-formed dataset did not load whole: %v", err)
		}
		ds, err := d.Get("alice", "d1")
		if err != nil {
			return // skipped as unrecoverable
		}
		if len(ds.Attrs) != ds.Cols {
			t.Fatalf("loaded %d attribute names for %d columns", len(ds.Attrs), ds.Cols)
		}
		rows := 0
		for i := range ds.segs {
			rows += ds.segs[i].rows
		}
		if rows != ds.Rows {
			t.Fatalf("Rows = %d, batches hold %d", ds.Rows, rows)
		}
		if ds.Labeled && len(ds.labels) != ds.Rows {
			t.Fatalf("%d labels for %d rows", len(ds.labels), ds.Rows)
		}
		for i := range ds.segs {
			b, err := ds.segs[i].get()
			if err != nil {
				continue
			}
			if r, c := b.Dims(); r != ds.segs[i].rows || c != ds.Cols || len(b.Raw()) != r*c {
				t.Fatalf("block %d reads as %dx%d (%d values), its batch is %dx%d", i, r, c, len(b.Raw()), ds.segs[i].rows, ds.Cols)
			}
		}
	})
}
