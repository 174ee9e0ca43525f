package datastore

import (
	"container/list"
	"strings"
	"sync"

	"ppclust/internal/matrix"
)

// DefaultCacheBytes bounds the Dir store's block cache when no size is
// configured: 256 MiB, a few dozen full-size blocks.
const DefaultCacheBytes = 256 << 20

// CacheStats is a point-in-time view of a BlockCache, shaped for
// /v1/metrics and the read benchmarks.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// BlockCache is a byte-bounded LRU of row blocks, shared across every
// shard of a Dir store: one budget governs the whole process, so a hot
// dataset on one shard can use headroom a cold shard is not.
//
// Loads are single-flight per key: concurrent readers of the same block
// share one disk read instead of stampeding.
type BlockCache struct {
	mu                      sync.Mutex
	max                     int64
	bytes                   int64
	ll                      *list.List // front = most recently used
	items                   map[string]*cacheEntry
	hits, misses, evictions int64
}

type cacheEntry struct {
	key   string
	block *matrix.Dense
	size  int64
	err   error
	ready chan struct{} // closed once block/err is settled
	elem  *list.Element // nil until the entry is admitted to the LRU
}

// NewBlockCache returns a cache bounded to maxBytes of block data
// (maxBytes < 1 falls back to DefaultCacheBytes).
func NewBlockCache(maxBytes int64) *BlockCache {
	if maxBytes < 1 {
		maxBytes = DefaultCacheBytes
	}
	return &BlockCache{
		max:   maxBytes,
		ll:    list.New(),
		items: map[string]*cacheEntry{},
	}
}

// blockBytes is the memory a block pins: its backing array's capacity.
func blockBytes(b *matrix.Dense) int64 {
	return int64(cap(b.Raw())) * 8
}

// GetOrLoad returns the cached block for key, or runs load exactly once
// (across concurrent callers) to materialize it. A block larger than the
// whole budget is returned uncached.
func (c *BlockCache) GetOrLoad(key string, load func() (*matrix.Dense, error)) (*matrix.Dense, error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		select {
		case <-e.ready:
			// Settled: a hit (errored entries are removed on settle, so a
			// present+settled entry always carries a block).
			c.hits++
			if e.elem != nil {
				c.ll.MoveToFront(e.elem)
			}
			c.mu.Unlock()
			return e.block, e.err
		default:
			// In flight: wait for the loader without holding the lock.
			c.mu.Unlock()
			<-e.ready
			if e.err != nil {
				return nil, e.err
			}
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return e.block, nil
		}
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.items[key] = e
	c.misses++
	c.mu.Unlock()

	block, err := load()

	c.mu.Lock()
	e.block, e.err = block, err
	// The entry is only admitted if it is still the one the map points at:
	// RemovePrefix/Clear may have dropped it mid-load (dataset deleted),
	// and admitting it anyway would serve the deleted dataset's bytes to a
	// later re-creation of the same name.
	current := c.items[key] == e
	switch {
	case err != nil:
		if current {
			delete(c.items, key)
		}
	case !current:
		// Invalidated while loading: hand the block to the waiters that
		// asked before the delete, but never cache it.
	case blockBytes(block) > c.max:
		// Too big to ever fit: hand it out but do not admit it, or it
		// would evict the entire cache for one oversized tenant.
		delete(c.items, key)
	default:
		e.size = blockBytes(block)
		e.elem = c.ll.PushFront(e)
		c.bytes += e.size
		c.evictLocked()
	}
	close(e.ready)
	c.mu.Unlock()
	return block, err
}

// Add warms the cache with a block that is already in memory — the Dir
// store's write-through on ingest, so the first job over a fresh upload
// reads from memory, not disk.
func (c *BlockCache) Add(key string, block *matrix.Dense) {
	size := blockBytes(block)
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		select {
		case <-e.ready:
			if e.elem != nil {
				c.ll.MoveToFront(e.elem)
			}
		default:
			// A concurrent load is settling the same key; let it win.
		}
		return
	}
	e := &cacheEntry{key: key, block: block, size: size, ready: make(chan struct{})}
	close(e.ready)
	c.items[key] = e
	e.elem = c.ll.PushFront(e)
	c.bytes += size
	c.evictLocked()
}

// evictLocked drops least-recently-used settled entries until the cache
// fits its budget.
func (c *BlockCache) evictLocked() {
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			return
		}
		c.removeLocked(back.Value.(*cacheEntry))
		c.evictions++
	}
}

func (c *BlockCache) removeLocked(e *cacheEntry) {
	delete(c.items, e.key)
	if e.elem != nil {
		c.ll.Remove(e.elem)
		e.elem = nil
		c.bytes -= e.size
	}
}

// RemovePrefix invalidates every entry whose key begins with prefix —
// how a dataset delete drops its blocks. In-flight loads are unlinked
// from the map so their settle cannot admit stale bytes under a name a
// re-created dataset may reuse; their waiters still receive the block
// they asked for.
func (c *BlockCache) RemovePrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.items {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		select {
		case <-e.ready:
			c.removeLocked(e)
		default:
			delete(c.items, key)
		}
	}
}

// Clear drops every entry — the benchmarks' cold-read reset. In-flight
// loads are unlinked like in RemovePrefix.
func (c *BlockCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.items {
		select {
		case <-e.ready:
			c.removeLocked(e)
		default:
			delete(c.items, key)
		}
	}
}

// Stats returns a snapshot of the cache counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.max,
	}
}
