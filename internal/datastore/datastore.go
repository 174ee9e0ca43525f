// Package datastore stores the named, owner-scoped datasets the analytics
// job subsystem operates on: a dataset is ingested once (streamed row by
// row through a Builder), frozen, and then read many times by protect,
// cluster, evaluate, audit and tune jobs.
//
// Data is held as fixed-size row blocks — the same decomposition
// internal/engine uses for its deterministic parallel reductions — so a
// job can iterate blocks without re-chunking, and an upload of unbounded
// length never needs a second contiguous copy during ingest.
//
// The package ships two Store implementations:
//
//   - Memory: a sharded in-process store. Owners hash onto independent
//     shards, each with its own lock, so concurrent ingest from many
//     owners scales with the shard count instead of funnelling through
//     one mutex.
//   - Dir: a directory-backed store with the same sharded index, where
//     each dataset is a directory of append-only binary row segments plus
//     an NDJSON manifest journal (dir.go). Blocks are read back lazily
//     through a byte-bounded LRU cache (cache.go) shared across shards,
//     so hot datasets serve repeated job reads without touching disk.
//
// Datasets are immutable after Finish: stores and callers share the
// underlying blocks without copying, which is what makes a Get on the hot
// job path cheap.
package datastore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"regexp"
	"sort"
	"sync"
	"time"

	"ppclust/internal/matrix"
)

// Errors returned by datastore operations.
var (
	// ErrNotFound reports a missing owner or dataset.
	ErrNotFound = errors.New("datastore: not found")
	// ErrExists reports a Put over a dataset that already exists.
	ErrExists = errors.New("datastore: dataset already exists")
	// ErrBadName reports an invalid owner or dataset name.
	ErrBadName = errors.New("datastore: invalid name")
	// ErrBadData reports malformed rows during ingest.
	ErrBadData = errors.New("datastore: invalid data")
	// ErrCorrupt reports unreadable on-disk state that could not be
	// recovered (a dataset whose manifest lost every complete batch).
	ErrCorrupt = errors.New("datastore: corrupt dataset")
)

// DefaultBlockRows is the Builder's row-block size when none is set. It
// matches engine.DefaultBlockRows so stored blocks line up with the
// engine's parallel decomposition.
const DefaultBlockRows = 8192

// DefaultShards is the store shard count when none is configured: enough
// to keep a few dozen concurrently ingesting owners off each other's
// locks without bloating small deployments.
const DefaultShards = 16

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// ValidName reports whether name is acceptable as an owner or dataset
// name. The character set deliberately excludes path separators so names
// can double as file names in the directory-backed store.
func ValidName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// Meta is the secret-free description of a stored dataset, safe to list
// over the API.
type Meta struct {
	// Owner names the data owner the dataset belongs to.
	Owner string `json:"owner"`
	// Name identifies the dataset within its owner's namespace.
	Name string `json:"name"`
	// Rows and Cols give the data shape.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Attrs holds one attribute name per column.
	Attrs []string `json:"attrs"`
	// Labeled reports whether every row carries a ground-truth label.
	Labeled bool `json:"labeled"`
	// CreatedAt records when the dataset was ingested (UTC).
	CreatedAt time.Time `json:"created_at"`
}

// segref is one row block of a dataset: either resident in memory (the
// Memory store, or a dataset fresh out of a Builder) or loadable on
// demand from a segment file through the store's block cache.
type segref struct {
	rows  int
	block *matrix.Dense                 // resident block; nil when lazy
	load  func() (*matrix.Dense, error) // lazy loader; nil when resident
}

func (s *segref) get() (*matrix.Dense, error) {
	if s.block != nil {
		return s.block, nil
	}
	return s.load()
}

// Dataset is an immutable ingested dataset: metadata plus row blocks.
// Blocks may be lazily materialized from disk; the accessors that touch
// row data can therefore fail with an I/O error on the Dir store.
type Dataset struct {
	Meta
	segs   []segref
	labels []int
}

// Blocks calls fn for each row block in order, stopping at the first
// error. Blocks all have the builder's block size except the last.
func (d *Dataset) Blocks(fn func(b *matrix.Dense) error) error {
	for i := range d.segs {
		b, err := d.segs[i].get()
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// NumBlocks returns the number of row blocks.
func (d *Dataset) NumBlocks() int { return len(d.segs) }

// Matrix materializes the dataset as one contiguous matrix — the form
// engine.Protect and the clustering algorithms consume. The result is a
// fresh copy; mutating it never touches the stored blocks.
func (d *Dataset) Matrix() (*matrix.Dense, error) {
	out := matrix.NewDense(d.Rows, d.Cols, nil)
	r := 0
	err := d.Blocks(func(b *matrix.Dense) error {
		for i := 0; i < b.Rows(); i++ {
			copy(out.RawRow(r), b.RawRow(i))
			r++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Labels returns a copy of the per-row ground-truth labels, or nil when
// the dataset is unlabeled.
func (d *Dataset) Labels() []int {
	if d.labels == nil {
		return nil
	}
	return append([]int(nil), d.labels...)
}

// Builder ingests a dataset row by row, chunking into blocks as it goes.
// It is not safe for concurrent use; one upload drives one builder.
type Builder struct {
	meta      Meta
	blockRows int
	cur       []float64 // flat rows of the block being filled
	curRows   int
	segs      []segref
	labels    []int
}

// NewBuilder starts a dataset for owner with the given attribute names.
func NewBuilder(owner, name string, attrs []string) (*Builder, error) {
	if err := ValidName(owner); err != nil {
		return nil, err
	}
	if err := ValidName(name); err != nil {
		return nil, err
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("%w: no attributes", ErrBadData)
	}
	return &Builder{
		meta: Meta{
			Owner: owner,
			Name:  name,
			Cols:  len(attrs),
			Attrs: append([]string(nil), attrs...),
		},
		blockRows: DefaultBlockRows,
	}, nil
}

// SetBlockRows overrides the row-block size; it must be called before the
// first Append.
func (b *Builder) SetBlockRows(n int) {
	if n > 0 && b.meta.Rows == 0 {
		b.blockRows = n
	}
}

// Append adds one unlabeled row.
func (b *Builder) Append(row []float64) error {
	return b.append(row, 0, false)
}

// AppendLabeled adds one row with its ground-truth label. A dataset is
// labeled all-or-nothing: mixing Append and AppendLabeled fails.
func (b *Builder) AppendLabeled(row []float64, label int) error {
	return b.append(row, label, true)
}

func (b *Builder) append(row []float64, label int, labeled bool) error {
	if len(row) != b.meta.Cols {
		return fmt.Errorf("%w: row %d has %d values, want %d", ErrBadData, b.meta.Rows, len(row), b.meta.Cols)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: row %d column %d is not finite", ErrBadData, b.meta.Rows, j)
		}
	}
	if b.meta.Rows > 0 && labeled != (b.labels != nil) {
		return fmt.Errorf("%w: row %d mixes labeled and unlabeled rows", ErrBadData, b.meta.Rows)
	}
	if labeled {
		b.labels = append(b.labels, label)
	}
	if b.cur == nil {
		b.cur = make([]float64, 0, b.blockRows*b.meta.Cols)
	}
	b.cur = append(b.cur, row...)
	b.curRows++
	b.meta.Rows++
	if b.curRows == b.blockRows {
		b.flush()
	}
	return nil
}

func (b *Builder) flush() {
	if b.curRows == 0 {
		return
	}
	b.segs = append(b.segs, segref{
		rows:  b.curRows,
		block: matrix.NewDense(b.curRows, b.meta.Cols, b.cur),
	})
	b.cur = nil
	b.curRows = 0
}

// Finish freezes the builder into an immutable Dataset stamped at now.
func (b *Builder) Finish(now time.Time) (*Dataset, error) {
	if b.meta.Rows == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrBadData)
	}
	if b.curRows > 0 {
		// The last block is partial: copy it out of its room for
		// blockRows rows, which it would pin for as long as it lives.
		b.cur = append(make([]float64, 0, len(b.cur)), b.cur...)
	}
	b.flush()
	meta := b.meta
	meta.Labeled = b.labels != nil
	meta.CreatedAt = now.UTC()
	ds := &Dataset{Meta: meta, segs: b.segs, labels: b.labels}
	b.segs, b.labels = nil, nil // the builder is spent
	return ds, nil
}

// Store is a dataset backend. Implementations are safe for concurrent
// use; the datasets they hand out are immutable.
type Store interface {
	// Put stores a finished dataset; ErrExists if (owner, name) is taken.
	Put(ds *Dataset) error
	// Get returns the named dataset.
	Get(owner, name string) (*Dataset, error)
	// List returns metadata for every dataset of owner, sorted by name.
	// An unknown owner lists empty, not ErrNotFound — job submission
	// distinguishes "no such dataset" from "no datasets yet" elsewhere.
	List(owner string) ([]Meta, error)
	// Delete removes the named dataset.
	Delete(owner, name string) error
}

// shardOf picks the shard index for an owner: every dataset of one owner
// lives on one shard, so per-owner operations never cross shard locks.
func shardOf(owner string, n int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(owner))
	return int(h.Sum32() % uint32(n))
}

// memShard is one independently locked slice of the owner space.
type memShard struct {
	mu     sync.RWMutex
	owners map[string]map[string]*Dataset
}

// Memory is a sharded in-process Store: owners hash onto independent
// shards so concurrent multi-owner ingest does not serialize on one lock.
type Memory struct {
	shards []*memShard
}

// NewMemory returns an empty in-memory dataset store with DefaultShards
// shards.
func NewMemory() *Memory { return NewSharded(DefaultShards) }

// NewSharded returns an empty in-memory dataset store with n independently
// locked shards (n < 1 falls back to 1).
func NewSharded(n int) *Memory {
	if n < 1 {
		n = 1
	}
	m := &Memory{shards: make([]*memShard, n)}
	for i := range m.shards {
		m.shards[i] = &memShard{owners: map[string]map[string]*Dataset{}}
	}
	return m
}

// Shards returns the shard count.
func (m *Memory) Shards() int { return len(m.shards) }

func (m *Memory) shard(owner string) *memShard {
	return m.shards[shardOf(owner, len(m.shards))]
}

// Put implements Store.
func (m *Memory) Put(ds *Dataset) error {
	if err := ValidName(ds.Owner); err != nil {
		return err
	}
	if err := ValidName(ds.Name); err != nil {
		return err
	}
	sh := m.shard(ds.Owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.putLocked(ds)
}

func (sh *memShard) putLocked(ds *Dataset) error {
	sets := sh.owners[ds.Owner]
	if sets == nil {
		sets = map[string]*Dataset{}
		sh.owners[ds.Owner] = sets
	}
	if _, ok := sets[ds.Name]; ok {
		return fmt.Errorf("%w: %s/%s", ErrExists, ds.Owner, ds.Name)
	}
	sets[ds.Name] = ds
	return nil
}

// Get implements Store.
func (m *Memory) Get(owner, name string) (*Dataset, error) {
	sh := m.shard(owner)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ds, ok := sh.owners[owner][name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, owner, name)
	}
	return ds, nil
}

// List implements Store.
func (m *Memory) List(owner string) ([]Meta, error) {
	sh := m.shard(owner)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sets := sh.owners[owner]
	out := make([]Meta, 0, len(sets))
	for _, ds := range sets {
		out = append(out, ds.Meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Delete implements Store.
func (m *Memory) Delete(owner, name string) error {
	sh := m.shard(owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.deleteLocked(owner, name)
}

func (sh *memShard) deleteLocked(owner, name string) error {
	if _, ok := sh.owners[owner][name]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, owner, name)
	}
	delete(sh.owners[owner], name)
	if len(sh.owners[owner]) == 0 {
		delete(sh.owners, owner)
	}
	return nil
}
