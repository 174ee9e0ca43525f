// Package ring places owners on a set of ppclustd nodes with a
// consistent-hash ring, the classic Karger construction: every physical
// node projects a fixed number of virtual nodes onto a 64-bit hash
// circle, and a key is owned by the first virtual node clockwise of the
// key's hash. Virtual nodes smooth the load split (with v vnodes per
// node the expected imbalance shrinks as 1/sqrt(v)), and a membership
// change only moves the keys adjacent to the vnodes that appeared or
// disappeared — the property that makes join/leave rebalancing
// proportional to 1/n of the data instead of all of it.
//
// Membership is deliberately gossip-free: the member list is small,
// changes are rare, and every change is stamped with a monotonically
// increasing epoch. Nodes exchange full member lists and adopt whichever
// carries the newer epoch (last-writer-wins), which converges without
// vector clocks because the list is tiny and a stale adoption is
// corrected by the next sync.
//
// The package is pure data structure — no I/O, no goroutines — so the
// daemon's transport layer and ppclient can share one placement
// implementation and always agree on who owns what.
package ring

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVnodes is the virtual-node count used when a Ring is built
// with vnodes <= 0. 64 keeps the expected owner imbalance across a
// handful of nodes under ~15% while the full vnode table for a
// 16-node ring still fits in a few KiB.
const DefaultVnodes = 64

// ErrDuplicateID reports a join with a node ID that is already a member
// under a different address — the caller distinguishes a benign rejoin
// (same address) from a misconfigured second node stealing an identity.
var ErrDuplicateID = errors.New("ring: node id already joined from a different address")

// Node is one ppclustd process: a stable identity plus the base URL the
// rest of the ring reaches it at.
type Node struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Status is the GET /v1/ring body: the answering node's view of the
// membership.
type Status struct {
	// Enabled is false on a daemon running single-node; the rest of the
	// fields are then zero.
	Enabled bool `json:"enabled"`
	// Self is the answering node's ID.
	Self string `json:"self"`
	// Epoch is the membership version; higher supersedes lower.
	Epoch int64 `json:"epoch"`
	// Vnodes is the virtual-node count placement hashing uses. Clients
	// must hash with the same value to agree with the daemons.
	Vnodes int `json:"vnodes"`
	// Replicas is how many successor nodes mirror each owner.
	Replicas int `json:"replicas"`
	// Nodes is the full member list.
	Nodes []Node `json:"nodes"`
}

// vnode is one point on the hash circle.
type vnode struct {
	hash uint64
	node int // index into members
}

// Ring is a versioned membership set plus the derived hash circle.
// All methods are safe for concurrent use.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	epoch   int64
	members []Node  // sorted by ID for deterministic snapshots
	circle  []vnode // sorted by hash
}

// New returns an empty ring using the given virtual-node count per
// member (DefaultVnodes when vnodes <= 0).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes}
}

// Vnodes returns the per-member virtual-node count.
func (r *Ring) Vnodes() int { return r.vnodes }

// hashKey is fnv-1a 64 followed by a murmur-style finalizer. fnv alone
// is cheap and — unlike maphash — identical across processes, which
// placement requires, but its avalanche is weak on the short,
// near-identical strings we hash ("n1#7", "owner:alice"): sequential
// suffixes land in correlated bands and a node can end up owning half
// the circle. The fmix64 finalizer spreads those bands uniformly.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// rebuildLocked recomputes the hash circle from the member list.
func (r *Ring) rebuildLocked() {
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].ID < r.members[j].ID })
	r.circle = r.circle[:0]
	for i, m := range r.members {
		for v := 0; v < r.vnodes; v++ {
			r.circle = append(r.circle, vnode{hash: hashKey(m.ID + "#" + strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(r.circle, func(i, j int) bool { return r.circle[i].hash < r.circle[j].hash })
}

// Snapshot returns the current epoch and a copy of the member list.
func (r *Ring) Snapshot() (int64, []Node) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Node, len(r.members))
	copy(out, r.members)
	return r.epoch, out
}

// Epoch returns the current membership version.
func (r *Ring) Epoch() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Len returns the current member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Lookup returns the member with the given ID, if present.
func (r *Ring) Lookup(id string) (Node, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.members {
		if m.ID == id {
			return m, true
		}
	}
	return Node{}, false
}

// Adopt replaces the membership with the given list if its epoch is
// newer than ours, reporting whether it was adopted. Equal epochs keep
// the local view: the sender and receiver already agree or will be
// reconciled by the next bump.
func (r *Ring) Adopt(epoch int64, nodes []Node) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch <= r.epoch {
		return false
	}
	r.epoch = epoch
	r.members = append(r.members[:0:0], nodes...)
	r.rebuildLocked()
	return true
}

// Seed installs an initial membership without epoch comparison — the
// bootstrap path for a node told its peers on the command line.
func (r *Ring) Seed(epoch int64, nodes []Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch = epoch
	r.members = append(r.members[:0:0], nodes...)
	r.rebuildLocked()
}

// Join adds a node and bumps the epoch. A node re-announcing itself at
// the same address is a no-op rejoin (rejoined=true, epoch unchanged);
// the same ID at a different address is ErrDuplicateID so a
// copy-pasted -node-id cannot silently split an identity across two
// processes.
func (r *Ring) Join(n Node) (epoch int64, rejoined bool, err error) {
	if n.ID == "" || n.Addr == "" {
		return 0, false, fmt.Errorf("ring: join needs id and addr")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.members {
		if m.ID == n.ID {
			if m.Addr == n.Addr {
				return r.epoch, true, nil
			}
			return 0, false, ErrDuplicateID
		}
	}
	r.members = append(r.members, n)
	r.epoch++
	r.rebuildLocked()
	return r.epoch, false, nil
}

// Remove drops a node by ID and bumps the epoch, reporting whether it
// was a member.
func (r *Ring) Remove(id string) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, m := range r.members {
		if m.ID == id {
			r.members = append(r.members[:i], r.members[i+1:]...)
			r.epoch++
			r.rebuildLocked()
			return r.epoch, true
		}
	}
	return r.epoch, false
}

// Owner returns the member owning key — the first virtual node
// clockwise of the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (Node, bool) {
	nodes := r.Place(key, 0)
	if len(nodes) == 0 {
		return Node{}, false
	}
	return nodes[0], true
}

// Place returns the owner of key followed by up to `replicas` distinct
// successor members, walking the circle clockwise. With fewer members
// than replicas+1 every member is returned once. The result order is
// the failover order: primary first, then successors by ring distance.
func (r *Ring) Place(key string, replicas int) []Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.circle) == 0 {
		return nil
	}
	want := replicas + 1
	if want > len(r.members) {
		want = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.circle), func(i int) bool { return r.circle[i].hash >= h })
	out := make([]Node, 0, want)
	seen := make(map[int]bool, want)
	for i := 0; i < len(r.circle) && len(out) < want; i++ {
		vn := r.circle[(start+i)%len(r.circle)]
		if seen[vn.node] {
			continue
		}
		seen[vn.node] = true
		out = append(out, r.members[vn.node])
	}
	return out
}

// OwnerKey is the placement key for owner-scoped state: the owner's
// keyring entries, credentials, datasets and jobs all hash under it so
// one node serves an owner's whole world.
func OwnerKey(owner string) string { return "owner:" + owner }

// FedKey is the placement key for a federation and its contribution
// datasets, so the federation record and the rows it freezes co-locate.
func FedKey(id string) string { return "fed:" + id }
