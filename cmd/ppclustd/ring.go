package main

// Multi-node ring runtime: consistent-hash placement, request
// forwarding, membership, and asynchronous replication on top of the
// single-node daemon.
//
// Placement is internal/ring's consistent hash: every owner (and every
// federation) has one home node that serves all of its requests, plus
// -replicas successor nodes that mirror its keyring state and datasets.
// Any node accepts any /v1/* request; a request landing on a non-owner
// is proxied to the home node (one extra hop, transparent to the
// client), failing over to successor replicas when the home node is
// unreachable.
//
// Membership is gossip-free: a full member list stamped with a
// monotonically increasing epoch, exchanged over POST /v1/ring/sync and
// adopted last-writer-wins (see internal/ring). Nodes boot either from
// a static -peers list (every node gets the same list, epoch 1) or by
// joining an existing node with -join, which bumps the epoch and
// broadcasts the new list.
//
// Internal routes (everything under /v1/ring except the public GET
// /v1/ring status) optionally require the shared -cluster-key header so
// a stray client cannot inject membership or replica state.
//
// Known single-ring limitations, accepted by design: jobs live and die
// with the node that accepted them (only their input datasets are
// replicated); the federation *record* lives on the federation's home
// node and is not replicated; GET /v1/datasets lists only datasets
// resident on the owner's home node.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/codec"
	"ppclust/internal/datastore"
	"ppclust/internal/federation"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/metrics"
	"ppclust/internal/obs"
	"ppclust/internal/ring"
	"ppclust/internal/service"
	"ppclust/ppclient"
)

// Ring headers. Hop counts forwarded requests so a stale membership
// view can never loop one forever; Replica tells the receiving node to
// serve from its local replica instead of forwarding again; Fed-Id
// carries the pre-generated federation ID a create was routed by;
// Cluster-Key authenticates internal ring traffic.
const (
	hdrHop        = "X-Ppclust-Ring-Hop"
	hdrReplica    = "X-Ppclust-Ring-Replica"
	hdrFedID      = "X-Ppclust-Fed-Id"
	hdrClusterKey = "X-Ppclust-Cluster-Key"
	// hdrCreatedAt carries a binary dataset export's ingest timestamp —
	// the one piece of metadata the framed row stream doesn't encode.
	hdrCreatedAt = "X-Ppclust-Created-At"
)

// maxHops bounds the forwarding chain: client → wrong node → home node
// is the normal worst case; a second forward means the two nodes
// disagree about placement, and a third would be a loop.
const maxHops = 2

// replLagBoundsUs buckets the replication queue lag (enqueue → ship):
// sub-millisecond when the worker keeps up, seconds when it is drowning.
var replLagBoundsUs = []float64{
	100, 1_000, 10_000, 100_000, 500_000,
	1_000_000, 5_000_000, 10_000_000, 30_000_000,
}

// ringConfig is the flag-derived ring identity of this node.
type ringConfig struct {
	NodeID     string
	Advertise  string
	ClusterKey string
	Replicas   int
	Vnodes     int
}

// ringRuntime implements service.RingHook and owns everything
// cluster-shaped in the daemon: the membership ring, the forwarding
// middleware, the internal transfer routes, and the replication worker.
type ringRuntime struct {
	self       ring.Node
	ring       *ring.Ring
	replicas   int
	clusterKey string
	maxBody    int64

	keys  keyring.Store
	store datastore.Store
	// traces is the node's retained-trace store, served to peers over
	// GET /v1/ring/trace for cross-node stitching (nil until the server
	// wires it in handler()).
	traces *obs.TraceStore

	mu      sync.Mutex
	clients map[string]*ppclient.Client // addr → retrying client

	repl      chan service.ReplicationEvent
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	started   bool
	startedMu sync.Mutex

	// logger carries the node ID on every record; main swaps in the
	// daemon-wide logger, the default keeps standalone construction
	// (tests) working.
	logger *slog.Logger
	// catchUpUs is the duration of the last bootstrap catch-up pull in
	// microseconds — exposed as the ring_catchup_duration_us gauge so an
	// operator can see how long a node rejoin blocks readiness.
	catchUpUs atomic.Int64

	reg         *metrics.Registry
	forwards    *metrics.Counter
	replShipped *metrics.Counter
	replDropped *metrics.Counter
	replErrors  *metrics.Counter
	replLag     *metrics.Histogram
}

func newRingRuntime(cfg ringConfig, keys keyring.Store, store datastore.Store, svc *service.Services) *ringRuntime {
	reg := svc.Registry()
	rt := &ringRuntime{
		self:       ring.Node{ID: cfg.NodeID, Addr: strings.TrimRight(cfg.Advertise, "/")},
		ring:       ring.New(cfg.Vnodes),
		replicas:   max(cfg.Replicas, 0),
		clusterKey: cfg.ClusterKey,
		maxBody:    1 << 30,
		keys:       keys,
		store:      store,
		clients:    map[string]*ppclient.Client{},
		repl:       make(chan service.ReplicationEvent, 1024),
		stop:       make(chan struct{}),
		logger:     obs.NewLogger(os.Stderr, slog.LevelInfo, slog.String("node", cfg.NodeID)),

		reg:         reg,
		forwards:    reg.Counter("ring_forwards_total"),
		replShipped: reg.Counter("ring_replication_shipped_total"),
		replDropped: reg.Counter("ring_replication_dropped_total"),
		replErrors:  reg.Counter("ring_replication_errors_total"),
		replLag:     reg.Histogram("ring_replication_lag_us", replLagBoundsUs),
	}
	svc.SetRing(rt)
	return rt
}

// bootstrap seeds the membership (static -peers list, or a -join
// handshake against a running node), pulls any state this node should
// now hold, and starts the replication worker. It must run after the
// HTTP listener is serving: a joined peer may sync back immediately.
func (rt *ringRuntime) bootstrap(ctx context.Context, peers, joinAddr string) error {
	switch {
	case peers != "":
		nodes, err := parsePeers(peers)
		if err != nil {
			return err
		}
		found := false
		for _, n := range nodes {
			if n.ID == rt.self.ID {
				found = true
				break
			}
		}
		if !found {
			nodes = append(nodes, rt.self)
		}
		rt.ring.Seed(1, nodes)
		rt.catchUp(ctx)
	case joinAddr != "":
		var out ringSyncMsg
		if _, err := rt.roundTrip(ctx, strings.TrimRight(joinAddr, "/"), http.MethodPost, "/v1/ring/join", rt.self, &out); err != nil {
			return fmt.Errorf("joining ring via %s: %w", joinAddr, err)
		}
		rt.ring.Seed(out.Epoch, out.Nodes)
		rt.catchUp(ctx)
	default:
		rt.ring.Seed(1, []ring.Node{rt.self})
	}
	rt.startedMu.Lock()
	if !rt.started {
		rt.started = true
		rt.wg.Add(1)
		go rt.worker()
	}
	rt.startedMu.Unlock()
	return nil
}

// Close stops the replication worker after draining queued events.
func (rt *ringRuntime) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.startedMu.Lock()
	started := rt.started
	rt.startedMu.Unlock()
	if started {
		rt.wg.Wait()
	}
}

// parsePeers parses a static "-peers id=addr,id=addr" membership list.
func parsePeers(s string) ([]ring.Node, error) {
	var nodes []ring.Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("ppclustd: bad -peers entry %q (want id=addr)", part)
		}
		nodes = append(nodes, ring.Node{ID: id, Addr: strings.TrimRight(addr, "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ppclustd: -peers is empty")
	}
	return nodes, nil
}

// client returns the retrying ppclient for a peer address. DoRaw's
// connection-refused retry is what rides out a peer restart; beyond
// that, forwarding fails over to the next replica.
func (rt *ringRuntime) client(addr string) *ppclient.Client {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	cl, ok := rt.clients[addr]
	if !ok {
		cl = ppclient.New(addr, "")
		cl.Retries = 2
		cl.RetryBackoff = 25 * time.Millisecond
		rt.clients[addr] = cl
	}
	return cl
}

// roundTrip runs one internal JSON call against a peer, decoding a 2xx
// body into out (which may be nil) and returning the status. Non-2xx
// responses come back as an error carrying the envelope message, with
// the status still returned so callers can branch on 404/409.
func (rt *ringRuntime) roundTrip(ctx context.Context, addr, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, addr+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rt.clusterKey != "" {
		req.Header.Set(hdrClusterKey, rt.clusterKey)
	}
	resp, err := rt.client(addr).DoRaw(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := peerStatus(resp); err != nil {
		return resp.StatusCode, err
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s%s: decoding response: %w", method, addr, path, err)
		}
	}
	return resp.StatusCode, nil
}

// peerStatus turns a peer's non-2xx answer into an error that names the
// request, the status and the message of the peer's error envelope (its
// raw body when it sent none). A 2xx answer is nil, its body unread.
func peerStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	raw, _ := io.ReadAll(resp.Body)
	msg := strings.TrimSpace(string(raw))
	if body, ok := service.ParseError(raw); ok {
		msg = body.Message
	}
	return fmt.Errorf("%s %s: %d: %s", resp.Request.Method, resp.Request.URL, resp.StatusCode, msg)
}

// placement returns the nodes holding key, primary first.
func (rt *ringRuntime) placement(key string) []ring.Node {
	return rt.ring.Place(key, rt.replicas)
}

// inPlacement reports whether this node holds (a replica of) key.
func (rt *ringRuntime) inPlacement(key string) bool {
	for _, n := range rt.placement(key) {
		if n.ID == rt.self.ID {
			return true
		}
	}
	return false
}

// datasetKey is the placement key for a stored dataset: federation
// contributions ("fed.<id>") co-locate with their federation; every
// other dataset lives with its owner.
func datasetKey(owner, name string) string {
	if id, ok := strings.CutPrefix(name, "fed."); ok {
		return ring.FedKey(id)
	}
	return ring.OwnerKey(owner)
}

// ---------------------------------------------------------------------
// service.RingHook

// Owns reports whether this node is the primary for key. An empty ring
// (mid-bootstrap) fails open: single-node behavior.
func (rt *ringRuntime) Owns(key string) bool {
	nodes := rt.ring.Place(key, 0)
	return len(nodes) == 0 || nodes[0].ID == rt.self.ID
}

// credTransfer carries a credential hash between nodes — only ever the
// hash; plaintext tokens never cross the internal routes.
type credTransfer struct {
	Owner     string `json:"owner"`
	TokenHash []byte `json:"token_hash"`
}

// LookupCred fetches owner's credential hash from the owner's placement
// nodes. Every node in the placement is consulted (a freshly restarted
// home node may be behind its replicas); the first hit wins.
func (rt *ringRuntime) LookupCred(owner string) ([]byte, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var lastErr error
	tried := 0
	for _, n := range rt.placement(ring.OwnerKey(owner)) {
		if n.ID == rt.self.ID {
			continue // the local keyring was already consulted
		}
		tried++
		var out credTransfer
		status, err := rt.roundTrip(ctx, n.Addr, http.MethodGet, "/v1/ring/cred?owner="+url.QueryEscape(owner), nil, &out)
		switch {
		case err == nil && len(out.TokenHash) > 0:
			return out.TokenHash, true, nil
		case status == http.StatusNotFound:
			// Authoritative "no credential" from this node; keep looking.
		case err != nil:
			lastErr = err
		}
	}
	if tried > 0 && lastErr != nil {
		return nil, false, service.Internal(fmt.Errorf("ring credential lookup for %q: %w", owner, lastErr))
	}
	return nil, false, nil
}

// InstallCred registers a new owner's credential hash at the owner's
// home node — the cluster-wide claim arbitration point. When this node
// is the home node the local keyring's atomic ClaimToken (performed by
// the caller) is the arbitration, so this is a no-op.
func (rt *ringRuntime) InstallCred(owner string, hash []byte) error {
	nodes := rt.placement(ring.OwnerKey(owner))
	if len(nodes) == 0 || nodes[0].ID == rt.self.ID {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	status, err := rt.roundTrip(ctx, nodes[0].Addr, http.MethodPost, "/v1/ring/cred", credTransfer{Owner: owner, TokenHash: hash}, nil)
	if status == http.StatusConflict {
		return service.Conflict(err)
	}
	if err != nil {
		return service.Internal(fmt.Errorf("ring claim for %q: %w", owner, err))
	}
	return nil
}

// Replicate queues a write event for asynchronous mirroring. Never
// blocks: a full queue drops the event (counted) rather than stalling
// the write path — the join/restart catch-up pull repairs any gap.
func (rt *ringRuntime) Replicate(ev service.ReplicationEvent) {
	select {
	case rt.repl <- ev:
	default:
		rt.replDropped.Inc()
	}
}

// ---------------------------------------------------------------------
// Replication worker

func (rt *ringRuntime) worker() {
	defer rt.wg.Done()
	for {
		select {
		case ev := <-rt.repl:
			rt.ship(context.Background(), ev)
		case <-rt.stop:
			for {
				select {
				case ev := <-rt.repl:
					rt.ship(context.Background(), ev)
				default:
					return
				}
			}
		}
	}
}

// ship mirrors one write event to the other placement nodes of its key,
// each event bounded by 10 s within ctx. Events carry names, not
// payloads: the current state is read at ship time, so a burst of
// writes to one owner collapses into whatever is current, and the
// receiver's last-writer-wins import settles ordering.
func (rt *ringRuntime) ship(ctx context.Context, ev service.ReplicationEvent) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var key string
	switch ev.Kind {
	case service.ReplicateOwner:
		key = ring.OwnerKey(ev.Owner)
	default:
		key = datasetKey(ev.Owner, ev.Dataset)
	}
	if !ev.EnqueuedAt.IsZero() {
		rt.replLag.Observe(float64(time.Since(ev.EnqueuedAt).Microseconds()))
	}
	for _, n := range rt.placement(key) {
		if n.ID == rt.self.ID {
			continue
		}
		if err := rt.shipTo(ctx, n, ev); err != nil {
			rt.replErrors.Inc()
			rt.logger.Warn("replication ship failed", "kind", string(ev.Kind),
				"owner", ev.Owner, "dataset", ev.Dataset, "peer", n.ID, "err", err.Error())
		} else {
			rt.replShipped.Inc()
		}
	}
}

func (rt *ringRuntime) shipTo(ctx context.Context, n ring.Node, ev service.ReplicationEvent) error {
	switch ev.Kind {
	case service.ReplicateOwner:
		exp, err := rt.keys.Export(ev.Owner)
		if err != nil {
			return err
		}
		_, err = rt.roundTrip(ctx, n.Addr, http.MethodPost, "/v1/ring/replicate/owner", exp, nil)
		return err
	case service.ReplicateDataset:
		ds, err := rt.store.Get(ev.Owner, ev.Dataset)
		if errors.Is(err, datastore.ErrNotFound) {
			return nil // deleted since the event was queued
		}
		if err != nil {
			return err
		}
		return rt.sendDataset(ctx, n.Addr, ds)
	case service.ReplicateDatasetDelete:
		_, err := rt.roundTrip(ctx, n.Addr, http.MethodPost, "/v1/ring/replicate/dataset-delete",
			datasetRef{Owner: ev.Owner, Name: ev.Dataset}, nil)
		return err
	default:
		return fmt.Errorf("unknown replication kind %q", ev.Kind)
	}
}

// sendDataset replicates one dataset to a peer, streaming the blocks as
// framed binary batches (the same application/x-ppclust-rows format the
// public API speaks, labels riding in the labeled frames) with the
// dataset identity in query parameters.
func (rt *ringRuntime) sendDataset(ctx context.Context, addr string, ds *datastore.Dataset) error {
	var buf bytes.Buffer
	if err := encodeDatasetFrames(&buf, ds); err != nil {
		return err
	}
	path := "/v1/ring/replicate/dataset?owner=" + url.QueryEscape(ds.Owner) +
		"&name=" + url.QueryEscape(ds.Name) +
		"&created_at=" + url.QueryEscape(ds.CreatedAt.Format(time.RFC3339Nano))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", codec.ContentType)
	if rt.clusterKey != "" {
		req.Header.Set(hdrClusterKey, rt.clusterKey)
	}
	resp, err := rt.client(addr).DoRaw(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := peerStatus(resp); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// encodeDatasetFrames writes a dataset as a framed binary row stream,
// block-by-block from the datastore's cache without row slicing.
func encodeDatasetFrames(w io.Writer, ds *datastore.Dataset) error {
	bw := codec.NewWriter(w)
	if err := bw.WriteHeader(ds.Attrs, ds.Labeled); err != nil {
		return err
	}
	labels := ds.Labels()
	off := 0
	err := ds.Blocks(func(b *matrix.Dense) error {
		var bl []int
		if ds.Labeled {
			bl = labels[off : off+b.Rows()]
		}
		off += b.Rows()
		return bw.WriteBatch(b, bl)
	})
	if err != nil {
		return err
	}
	return bw.Close()
}

// importDatasetStream installs a dataset shipped as PPRW frames
// last-writer-wins by ingest time: an older (or equal) incoming copy
// never replaces a newer local one, so replays and races converge on the
// newest write. The incoming copy is built in full first, through the
// Builder, so NaN/Inf screening matches every other ingest path and a
// transfer that breaks off or carries a bad row leaves the local copy as
// it was. A stream that cannot be read is the sender's fault: its error
// is classified invalid, as an upload's is.
func (rt *ringRuntime) importDatasetStream(owner, name string, createdAt time.Time, rd *codec.Reader) error {
	// Names before the first frame: once the stream has failed it has none.
	attrs := rd.Names()
	if attrs == nil {
		_, _, err := rd.ReadBatch()
		return service.Invalid(fmt.Errorf("ring: transfer for %s/%s: %w", owner, name, err))
	}
	b, err := datastore.NewBuilder(owner, name, attrs)
	if err != nil {
		return err
	}
	for {
		batch, labels, err := rd.ReadBatch()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return service.Invalid(fmt.Errorf("ring: transfer for %s/%s: %w", owner, name, err))
		}
		for i := 0; i < batch.Rows(); i++ {
			if rd.Labeled() {
				err = b.AppendLabeled(batch.RawRow(i), labels[i])
			} else {
				err = b.Append(batch.RawRow(i))
			}
			if err != nil {
				return err
			}
		}
	}
	ds, err := b.Finish(createdAt)
	if err != nil {
		return err
	}
	if cur, err := rt.store.Get(owner, name); err == nil {
		if !cur.CreatedAt.Before(createdAt) {
			return nil
		}
		if err := rt.store.Delete(owner, name); err != nil && !errors.Is(err, datastore.ErrNotFound) {
			return err
		}
	}
	if err := rt.store.Put(ds); err != nil && !errors.Is(err, datastore.ErrExists) {
		return err
	}
	return nil
}

// fetchDataset pulls one dataset from a peer during catch-up as PPRW
// frames.
func (rt *ringRuntime) fetchDataset(ctx context.Context, from ring.Node, owner, name string) error {
	path := "/v1/ring/export/dataset?owner=" + url.QueryEscape(owner) +
		"&name=" + url.QueryEscape(name)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, from.Addr+path, nil)
	if err != nil {
		return err
	}
	if rt.clusterKey != "" {
		req.Header.Set(hdrClusterKey, rt.clusterKey)
	}
	resp, err := rt.client(from.Addr).DoRaw(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := peerStatus(resp); err != nil {
		return err
	}
	createdAt, err := time.Parse(time.RFC3339Nano, resp.Header.Get(hdrCreatedAt))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", hdrCreatedAt, err)
	}
	return rt.importDatasetStream(owner, name, createdAt, codec.NewReader(resp.Body))
}

// ---------------------------------------------------------------------
// Catch-up and planned leave

// catchUp pulls the state this node should hold from every peer: the
// join/restart path. Best-effort — an unreachable peer is logged and
// skipped; replication of future writes and the next restart repair
// the rest.
func (rt *ringRuntime) catchUp(ctx context.Context) {
	start := time.Now()
	defer func() { rt.catchUpUs.Store(time.Since(start).Microseconds()) }()
	_, members := rt.ring.Snapshot()
	for _, m := range members {
		if m.ID == rt.self.ID {
			continue
		}
		var owners []string
		if _, err := rt.roundTrip(ctx, m.Addr, http.MethodGet, "/v1/ring/owners", nil, &owners); err != nil {
			rt.logger.Warn("catch-up owner list", "peer", m.ID, "err", err.Error())
			continue
		}
		for _, owner := range owners {
			rt.pullOwner(ctx, m, owner)
		}
	}
}

// ownerBundle is the catch-up inventory for one owner on one node.
type ownerBundle struct {
	Keyring  *keyring.OwnerExport `json:"keyring,omitempty"`
	Datasets []datastore.Meta     `json:"datasets"`
}

func (rt *ringRuntime) pullOwner(ctx context.Context, from ring.Node, owner string) {
	var b ownerBundle
	if _, err := rt.roundTrip(ctx, from.Addr, http.MethodGet, "/v1/ring/export/owner?owner="+url.QueryEscape(owner), nil, &b); err != nil {
		rt.logger.Warn("catch-up owner export", "owner", owner, "peer", from.ID, "err", err.Error())
		return
	}
	if b.Keyring != nil && rt.inPlacement(ring.OwnerKey(owner)) {
		if err := rt.keys.ImportOwner(*b.Keyring); err != nil {
			rt.logger.Warn("catch-up keyring import", "owner", owner, "err", err.Error())
		}
	}
	for _, meta := range b.Datasets {
		if !rt.inPlacement(datasetKey(meta.Owner, meta.Name)) {
			continue
		}
		if cur, err := rt.store.Get(meta.Owner, meta.Name); err == nil && !cur.CreatedAt.Before(meta.CreatedAt) {
			continue
		}
		if err := rt.fetchDataset(ctx, from, meta.Owner, meta.Name); err != nil {
			rt.logger.Warn("catch-up dataset pull", "owner", meta.Owner, "dataset", meta.Name, "peer", from.ID, "err", err.Error())
		}
	}
}

// drainPush moves every locally held owner's keyring state and datasets
// to their placement nodes — the planned-leave path, run after this
// node removed itself from the membership so the placement already
// reflects the post-leave ring. It ships one replication event per
// owner and per dataset, as the replication worker would.
func (rt *ringRuntime) drainPush(ctx context.Context) {
	owners, err := rt.keys.Owners()
	if err != nil {
		rt.logger.Warn("leave drain: listing owners", "err", err.Error())
		return
	}
	for _, owner := range owners {
		rt.ship(ctx, service.ReplicationEvent{Kind: service.ReplicateOwner, Owner: owner})
		metas, err := rt.store.List(owner)
		if err != nil {
			rt.logger.Warn("leave drain: dataset list", "owner", owner, "err", err.Error())
			continue
		}
		for _, meta := range metas {
			rt.ship(ctx, service.ReplicationEvent{Kind: service.ReplicateDataset, Owner: meta.Owner, Dataset: meta.Name})
		}
	}
}

// ---------------------------------------------------------------------
// HTTP: membership, status, internal transfer routes

// ringSyncMsg is the full-membership exchange: epoch plus member list.
type ringSyncMsg struct {
	Epoch int64       `json:"epoch"`
	Nodes []ring.Node `json:"nodes"`
}

// registerRoutes installs the ring routes on the daemon mux. GET
// /v1/ring (status) is public like /healthz; everything else is
// internal and guarded by the cluster key when one is configured.
func (rt *ringRuntime) registerRoutes(mux *http.ServeMux) {
	guard := rt.requireClusterKey
	mux.HandleFunc("GET /v1/ring", rt.handleStatus)
	mux.HandleFunc("POST /v1/ring/join", guard(rt.handleJoin))
	mux.HandleFunc("POST /v1/ring/leave", guard(rt.handleLeave))
	mux.HandleFunc("POST /v1/ring/sync", guard(rt.handleSync))
	mux.HandleFunc("GET /v1/ring/cred", guard(rt.handleCredGet))
	mux.HandleFunc("POST /v1/ring/cred", guard(rt.handleCredClaim))
	mux.HandleFunc("POST /v1/ring/replicate/owner", guard(rt.handleReplicateOwner))
	mux.HandleFunc("POST /v1/ring/replicate/dataset", guard(rt.handleReplicateDataset))
	mux.HandleFunc("POST /v1/ring/replicate/dataset-delete", guard(rt.handleReplicateDatasetDelete))
	mux.HandleFunc("GET /v1/ring/owners", guard(rt.handleOwners))
	mux.HandleFunc("GET /v1/ring/export/owner", guard(rt.handleExportOwner))
	mux.HandleFunc("GET /v1/ring/export/dataset", guard(rt.handleExportDataset))
	mux.HandleFunc("GET /v1/ring/trace", guard(rt.handleRingTrace))
}

// handleRingTrace serves this node's retained record for one trace ID —
// the peer-to-peer leg of cross-node stitching, and the one peer-only
// observability route: no public route returns a node's own record.
// 404 means "not retained here", which is an ordinary answer, not a
// failure.
func (rt *ringRuntime) handleRingTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if rt.traces == nil {
		writeErr(w, service.NotFoundErr(fmt.Errorf("trace store not enabled")))
		return
	}
	rec, ok := rt.traces.Get(id)
	if !ok {
		writeErr(w, service.NotFoundErr(fmt.Errorf("trace %q is not retained on this node", id)))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// scopeFanoutTimeout bounds each per-peer call of fanOutJSON: slow
// enough for a loaded peer, fast enough that one dead peer cannot stall
// the cluster-wide answer.
const scopeFanoutTimeout = 3 * time.Second

// fanOutJSON GETs path from every ring peer concurrently and decodes
// each body, returning the bodies by node plus an error map (nil when
// empty) for the peers that could not answer. A peer's 404 means "no
// record here": neither a body nor an error. With no ring (rt nil) the
// map is empty. Every cluster view — traces, cluster metrics, and
// cluster-scope history and alerts — asks its peers through here.
func fanOutJSON[T any](ctx context.Context, rt *ringRuntime, path string) (map[string]T, map[string]string) {
	perNode := map[string]T{}
	if rt == nil {
		return perNode, nil
	}
	_, members := rt.ring.Snapshot()
	type result struct {
		node   string
		body   T
		status int
		err    error
	}
	results := make(chan result, len(members))
	fanned := 0
	for _, m := range members {
		if m.ID == rt.self.ID {
			continue
		}
		fanned++
		go func(m ring.Node) {
			cctx, cancel := context.WithTimeout(ctx, scopeFanoutTimeout)
			defer cancel()
			res := result{node: m.ID}
			res.status, res.err = rt.roundTrip(cctx, m.Addr, http.MethodGet, path, nil, &res.body)
			results <- res
		}(m)
	}
	var errs map[string]string
	for range fanned {
		res := <-results
		switch {
		case res.err == nil:
			perNode[res.node] = res.body
		case res.status == http.StatusNotFound:
		default:
			if errs == nil {
				errs = map[string]string{}
			}
			errs[res.node] = res.err.Error()
		}
	}
	return perNode, errs
}

// clusterNodes lists self and every peer that answered, sorted: the
// nodes a cluster view covers.
func clusterNodes[T any](self string, peers map[string]T) []string {
	nodes := append(slices.Collect(maps.Keys(peers)), self)
	slices.Sort(nodes)
	return nodes
}

func (rt *ringRuntime) requireClusterKey(next http.HandlerFunc) http.HandlerFunc {
	if rt.clusterKey == "" {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(hdrClusterKey) != rt.clusterKey {
			writeErr(w, service.Wrap(service.ErrForbidden))
			return
		}
		next(w, r)
	}
}

func (rt *ringRuntime) handleStatus(w http.ResponseWriter, _ *http.Request) {
	epoch, nodes := rt.ring.Snapshot()
	writeJSON(w, http.StatusOK, ring.Status{
		Enabled:  true,
		Self:     rt.self.ID,
		Epoch:    epoch,
		Vnodes:   rt.ring.Vnodes(),
		Replicas: rt.replicas,
		Nodes:    nodes,
	})
}

func (rt *ringRuntime) handleJoin(w http.ResponseWriter, r *http.Request) {
	var n ring.Node
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&n); err != nil {
		writeErr(w, service.Invalid(fmt.Errorf("parsing join request: %w", err)))
		return
	}
	n.Addr = strings.TrimRight(n.Addr, "/")
	epoch, rejoined, err := rt.ring.Join(n)
	if errors.Is(err, ring.ErrDuplicateID) {
		writeErr(w, service.Conflict(err))
		return
	}
	if err != nil {
		writeErr(w, service.Invalid(err))
		return
	}
	_, nodes := rt.ring.Snapshot()
	if !rejoined {
		rt.logger.Info("ring node joined", "peer", n.ID, "addr", n.Addr,
			"epoch", epoch, "members", len(nodes))
		go rt.broadcastSync(n.ID)
	}
	writeJSON(w, http.StatusOK, ringSyncMsg{Epoch: epoch, Nodes: nodes})
}

// handleLeave removes a node from the membership. Addressed at the
// departing node itself ({"id": self}) it first pushes everything it
// holds to the post-leave placement — the planned-leave drain; aimed at
// any other node it just drops the (presumed dead) member.
func (rt *ringRuntime) handleLeave(w http.ResponseWriter, r *http.Request) {
	var in struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&in); err != nil {
		writeErr(w, service.Invalid(fmt.Errorf("parsing leave request: %w", err)))
		return
	}
	epoch, removed := rt.ring.Remove(in.ID)
	if !removed {
		writeErr(w, service.NotFoundErr(fmt.Errorf("node %q is not a member", in.ID)))
		return
	}
	rt.logger.Info("ring node left", "peer", in.ID, "epoch", epoch)
	rt.broadcastSync(in.ID)
	if in.ID == rt.self.ID {
		ctx, cancel := context.WithTimeout(r.Context(), 60*time.Second)
		defer cancel()
		rt.drainPush(ctx)
	}
	_, nodes := rt.ring.Snapshot()
	writeJSON(w, http.StatusOK, ringSyncMsg{Epoch: epoch, Nodes: nodes})
}

func (rt *ringRuntime) handleSync(w http.ResponseWriter, r *http.Request) {
	var in ringSyncMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&in); err != nil {
		writeErr(w, service.Invalid(fmt.Errorf("parsing sync: %w", err)))
		return
	}
	rt.ring.Adopt(in.Epoch, in.Nodes)
	epoch, nodes := rt.ring.Snapshot()
	writeJSON(w, http.StatusOK, ringSyncMsg{Epoch: epoch, Nodes: nodes})
}

// broadcastSync pushes the current membership to every other member
// (minus excluded IDs), so a join or leave propagates without waiting
// for organic traffic.
func (rt *ringRuntime) broadcastSync(exclude ...string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	epoch, nodes := rt.ring.Snapshot()
	msg := ringSyncMsg{Epoch: epoch, Nodes: nodes}
	for _, m := range nodes {
		if m.ID == rt.self.ID {
			continue
		}
		skip := false
		for _, ex := range exclude {
			if m.ID == ex {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		if _, err := rt.roundTrip(ctx, m.Addr, http.MethodPost, "/v1/ring/sync", msg, nil); err != nil {
			rt.logger.Warn("membership sync", "peer", m.ID, "err", err.Error())
		}
	}
}

func (rt *ringRuntime) handleCredGet(w http.ResponseWriter, r *http.Request) {
	owner := r.URL.Query().Get("owner")
	hash, err := rt.keys.TokenHash(owner)
	if err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	writeJSON(w, http.StatusOK, credTransfer{Owner: owner, TokenHash: hash})
}

func (rt *ringRuntime) handleCredClaim(w http.ResponseWriter, r *http.Request) {
	var in credTransfer
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&in); err != nil {
		writeErr(w, service.Invalid(fmt.Errorf("parsing credential claim: %w", err)))
		return
	}
	if len(in.TokenHash) == 0 {
		writeErr(w, service.Invalid(fmt.Errorf("credential claim for %q carries no hash", in.Owner)))
		return
	}
	if err := rt.keys.ClaimToken(in.Owner, in.TokenHash); err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"claimed": in.Owner})
}

func (rt *ringRuntime) handleReplicateOwner(w http.ResponseWriter, r *http.Request) {
	var exp keyring.OwnerExport
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, rt.maxBody)).Decode(&exp); err != nil {
		writeErr(w, service.Invalid(fmt.Errorf("parsing owner export: %w", err)))
		return
	}
	if err := rt.keys.ImportOwner(exp); err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"imported": exp.Owner})
}

func (rt *ringRuntime) handleReplicateDataset(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	owner, name := q.Get("owner"), q.Get("name")
	createdAt, err := time.Parse(time.RFC3339Nano, q.Get("created_at"))
	if err != nil {
		writeErr(w, service.Invalid(fmt.Errorf("parsing created_at: %w", err)))
		return
	}
	rd := codec.NewReader(http.MaxBytesReader(w, r.Body, rt.maxBody))
	if err := rt.importDatasetStream(owner, name, createdAt, rd); err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"imported": owner + "/" + name})
}

// datasetRef is the POST /v1/ring/replicate/dataset-delete body.
type datasetRef struct {
	Owner string `json:"owner"`
	Name  string `json:"name"`
}

func (rt *ringRuntime) handleReplicateDatasetDelete(w http.ResponseWriter, r *http.Request) {
	var in datasetRef
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&in); err != nil {
		writeErr(w, service.Invalid(fmt.Errorf("parsing dataset delete: %w", err)))
		return
	}
	if err := rt.store.Delete(in.Owner, in.Name); err != nil && !errors.Is(err, datastore.ErrNotFound) {
		writeErr(w, service.Wrap(err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": in.Owner + "/" + in.Name})
}

func (rt *ringRuntime) handleOwners(w http.ResponseWriter, _ *http.Request) {
	owners, err := rt.keys.Owners()
	if err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	if owners == nil {
		owners = []string{}
	}
	writeJSON(w, http.StatusOK, owners)
}

func (rt *ringRuntime) handleExportOwner(w http.ResponseWriter, r *http.Request) {
	owner := r.URL.Query().Get("owner")
	var b ownerBundle
	if exp, err := rt.keys.Export(owner); err == nil {
		b.Keyring = &exp
	} else if !errors.Is(err, keyring.ErrNotFound) {
		writeErr(w, service.Wrap(err))
		return
	}
	metas, err := rt.store.List(owner)
	if err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	b.Datasets = metas
	if b.Datasets == nil {
		b.Datasets = []datastore.Meta{}
	}
	writeJSON(w, http.StatusOK, b)
}

func (rt *ringRuntime) handleExportDataset(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ds, err := rt.store.Get(q.Get("owner"), q.Get("name"))
	if err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	w.Header().Set("Content-Type", codec.ContentType)
	w.Header().Set(hdrCreatedAt, ds.CreatedAt.Format(time.RFC3339Nano))
	if err := encodeDatasetFrames(w, ds); err != nil {
		rt.logger.Warn("ring export dataset abort", "owner", ds.Owner, "dataset", ds.Name, "err", err.Error())
		panic(http.ErrAbortHandler)
	}
}

// ---------------------------------------------------------------------
// Forwarding middleware

// middleware routes every keyed /v1/* request to the node owning its
// placement key, proxying with failover across the key's replicas. A
// request this node owns (or one that carries no placement key) falls
// through to next untouched.
func (rt *ringRuntime) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := rt.routeKey(r)
		if key == "" || r.Header.Get(hdrReplica) != "" {
			next.ServeHTTP(w, r)
			return
		}
		nodes := rt.placement(key)
		if len(nodes) == 0 || nodes[0].ID == rt.self.ID {
			next.ServeHTTP(w, r)
			return
		}
		hop := 0
		if h := r.Header.Get(hdrHop); h != "" {
			hop, _ = strconv.Atoi(h)
		}
		if hop >= maxHops {
			writeJSON(w, http.StatusLoopDetected, service.ErrorEnvelope{Error: service.ErrorBody{
				Code:    service.CodeInternal,
				Message: fmt.Sprintf("ring forwarding loop for key %q after %d hops; membership views disagree", key, hop),
			}})
			return
		}
		// The body is buffered so the same request can be replayed against
		// a successor when the home node is down.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.maxBody))
		if err != nil {
			writeErr(w, service.Invalid(fmt.Errorf("reading request body for forwarding: %w", err)))
			return
		}
		// The mux never runs for a proxied request, so the instrumentation
		// edge would label it "unmatched"; name the hop instead so entry
		// nodes show their proxy traffic as its own route.
		r.Pattern = "ring.forward"
		var lastErr error
		for i, n := range nodes {
			if n.ID == rt.self.ID {
				// This node is a replica of the key and every node ahead of
				// it is unreachable: serve from the local replica.
				r2 := r.Clone(r.Context())
				r2.Body = io.NopCloser(bytes.NewReader(body))
				r2.Header.Set(hdrReplica, "1")
				next.ServeHTTP(w, r2)
				// Reflect the matched route back onto the original request:
				// the instrumentation defer reads r, not the clone the mux
				// stamped.
				r.Pattern = r2.Pattern
				return
			}
			if err := rt.forward(w, r, n, body, hop, i > 0); err != nil {
				lastErr = err
				rt.logger.Warn("forward failed", "method", r.Method, "path", r.URL.Path,
					"peer", n.ID, "trace", obs.TraceID(r.Context()), "err", err.Error())
				continue
			}
			return
		}
		writeJSON(w, http.StatusBadGateway, service.ErrorEnvelope{Error: service.ErrorBody{
			Code:    service.CodeInternal,
			Message: fmt.Sprintf("no reachable node for key %q: %v", key, lastErr),
		}})
	})
}

// forward proxies the request to node n and relays the response —
// status, headers and body — verbatim. replica marks the target as a
// non-primary holder of the key, telling it to serve locally rather
// than forward again. Only transport failures return an error (the
// caller fails over); any HTTP response, error statuses included, is
// authoritative and relayed.
func (rt *ringRuntime) forward(w http.ResponseWriter, r *http.Request, n ring.Node, body []byte, hop int, replica bool) error {
	// The span and per-peer histogram cover the whole proxied exchange:
	// the hop is the ring's latency tax, and a slow or flapping peer shows
	// up as one histogram series keyed by its node ID.
	ctx, sp := obs.Start(r.Context(), "ring.forward")
	sp.Set("peer", n.ID)
	defer sp.End()
	start := time.Now()
	target := strings.TrimRight(n.Addr, "/") + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(ctx, r.Method, target, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hdr := r.Header.Clone()
	hdr.Set(hdrHop, strconv.Itoa(hop+1))
	if replica {
		hdr.Set(hdrReplica, "1")
	}
	hdr.Del("Connection")
	req.Header = hdr
	// NewRequest with a bytes.Reader sets GetBody, so ppclient's
	// connection-refused retry can rewind and resend.
	resp, err := rt.client(n.Addr).DoRaw(req)
	rt.reg.Histogram(fmt.Sprintf(`ring_forward_duration_us{peer=%q}`, n.ID), latencyBoundsUs).
		Observe(float64(time.Since(start).Microseconds()))
	if err != nil {
		sp.Set("err", err.Error())
		return err
	}
	defer resp.Body.Close()
	rt.forwards.Inc()
	sp.Set("status", resp.StatusCode)
	out := w.Header()
	for k, vs := range resp.Header {
		if k == "Connection" || k == "Transfer-Encoding" {
			continue
		}
		for _, v := range vs {
			out.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return nil
}

// routeKey derives the placement key for a request, or "" for requests
// served wherever they land (health, metrics, ring-internal routes,
// ownerless requests). POST /v1/federations is special: the federation
// ID does not exist yet, so one is pre-generated here, pinned into the
// Fed-Id header (forwarded nodes reuse it instead of minting another),
// and the create handler passes it to the service.
func (rt *ringRuntime) routeKey(r *http.Request) string {
	p := r.URL.Path
	if !strings.HasPrefix(p, "/v1/") {
		return ""
	}
	switch {
	case p == "/v1/ring" || strings.HasPrefix(p, "/v1/ring/"),
		p == "/v1/metrics", p == "/v1/keys",
		// The observability plane answers from whichever node is asked:
		// traces fan out to peers themselves, cluster metrics aggregate
		// everywhere, SLO status is per-node by design.
		p == "/v1/traces" || strings.HasPrefix(p, "/v1/traces/"),
		p == "/v1/slo",
		p == "/v1/metrics/history", p == "/v1/alerts",
		p == "/v1/incidents" || strings.HasPrefix(p, "/v1/incidents/"),
		strings.HasPrefix(p, "/v1/cluster/"):
		return ""
	}
	if p == "/v1/federations" {
		if r.Method != http.MethodPost {
			return "" // the list route aggregates locally
		}
		id := r.Header.Get(hdrFedID)
		if id == "" {
			var err error
			if id, err = federation.NewID(); err != nil {
				return ""
			}
			r.Header.Set(hdrFedID, id)
		}
		return ring.FedKey(id)
	}
	if rest, ok := strings.CutPrefix(p, "/v1/federations/"); ok {
		raw, _, _ := strings.Cut(rest, "/")
		if id, err := url.PathUnescape(raw); err == nil {
			return ring.FedKey(id)
		}
		return ""
	}
	if rest, ok := strings.CutPrefix(p, "/v1/datasets/"); ok {
		raw, _, _ := strings.Cut(rest, "/")
		if name, err := url.PathUnescape(raw); err == nil {
			if id, isFed := strings.CutPrefix(name, "fed."); isFed {
				return ring.FedKey(id)
			}
		}
	}
	if owner := r.URL.Query().Get("owner"); owner != "" {
		return ring.OwnerKey(owner)
	}
	return ""
}

// addGauges merges the ring's live gauges into a metrics snapshot.
func (rt *ringRuntime) addGauges(snap map[string]int64) {
	epoch, nodes := rt.ring.Snapshot()
	snap["ring_nodes"] = int64(len(nodes))
	snap["ring_epoch"] = epoch
	snap["ring_replication_pending"] = int64(len(rt.repl))
	snap["ring_catchup_duration_us"] = rt.catchUpUs.Load()
	owned := int64(0)
	if owners, err := rt.keys.Owners(); err == nil {
		for _, o := range owners {
			if ns := rt.ring.Place(ring.OwnerKey(o), 0); len(ns) > 0 && ns[0].ID == rt.self.ID {
				owned++
			}
		}
	}
	snap["ring_owned_owners"] = owned
}
