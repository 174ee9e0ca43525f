package main

// Integration tests for the multi-node ring: three real daemons over
// real HTTP sockets, every workload entered through a non-owner node,
// results byte-identical to a single-node server, replica failover when
// a node dies, membership edges (double join, hop loop, cluster key),
// a node joining while a job runs, and replication catch-up after a
// restart.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/ring"
	"ppclust/internal/service"
	"ppclust/ppclient"
)

// testVnodes keeps ring tests fast while still spreading owners; every
// node (and every scratch ring a test builds to predict placement) must
// use the same value.
const testVnodes = 32

// ringTestNode is one daemon of an in-process test ring. Its stores
// survive stop/start so restart tests can exercise catch-up against
// state the node kept (or lost, by resetting them).
type ringTestNode struct {
	id    string
	host  string // 127.0.0.1:port, reserved up front
	addr  string // http://host
	peers string // the static -peers list shared by the ring

	keys  keyring.Store
	store datastore.Store

	s   *server
	rt  *ringRuntime
	srv *httptest.Server
}

// ringNodeSetup, when set, runs against each freshly built server
// before its handler is constructed — the pulse tests' hook for
// configuring sampling, alerting and the flight recorder per node.
var ringNodeSetup func(tb testing.TB, nd *ringTestNode, s *server)

// startRing boots n nodes on pre-reserved ports with a shared static
// -peers list, each with `replicas` successor replicas per key.
func startRing(tb testing.TB, n, replicas int, clusterKey string) []*ringTestNode {
	tb.Helper()
	nodes := make([]*ringTestNode, n)
	lns := make([]net.Listener, n)
	var peers []string
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		host := ln.Addr().String()
		nodes[i] = &ringTestNode{id: fmt.Sprintf("n%d", i+1), host: host, addr: "http://" + host}
		lns[i] = ln
		peers = append(peers, nodes[i].id+"="+nodes[i].addr)
	}
	// Serve every node before bootstrapping any: catch-up pulls from
	// peers over HTTP, so a node bootstrapping against a reserved but
	// not-yet-serving listener would stall until its context expired.
	peerList := strings.Join(peers, ",")
	for i, nd := range nodes {
		nd.peers = peerList
		buildRingNode(tb, nd, lns[i], replicas, clusterKey)
	}
	for _, nd := range nodes {
		bootRingNode(tb, nd, nd.peers, "")
	}
	return nodes
}

// startRingNode builds, serves and bootstraps one node against an
// already-running ring — the join and restart paths.
func startRingNode(tb testing.TB, nd *ringTestNode, ln net.Listener, peers, join string, replicas int, clusterKey string) {
	tb.Helper()
	buildRingNode(tb, nd, ln, replicas, clusterKey)
	bootRingNode(tb, nd, peers, join)
}

// buildRingNode builds a fresh server+runtime around the node's stores
// (created on first start, kept across restarts) and serves it on the
// node's reserved address. ln may be nil on restart: the port is then
// rebound.
func buildRingNode(tb testing.TB, nd *ringTestNode, ln net.Listener, replicas int, clusterKey string) {
	tb.Helper()
	if nd.keys == nil {
		nd.keys = keyring.NewMemory()
	}
	if nd.store == nil {
		nd.store = datastore.NewMemory()
	}
	if ln == nil {
		var err error
		deadline := time.Now().Add(3 * time.Second)
		for {
			ln, err = net.Listen("tcp", nd.host)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		if err != nil {
			tb.Fatalf("rebinding %s: %v", nd.host, err)
		}
	}
	mgr := jobs.New(jobs.Config{Workers: 2})
	tb.Cleanup(mgr.Close)
	s := newServer(engine.New(4, 1024), nd.keys, nd.store, mgr, federation.NewMemory())
	s.nodeID = nd.id
	rt := newRingRuntime(ringConfig{
		NodeID:     nd.id,
		Advertise:  nd.addr,
		ClusterKey: clusterKey,
		Replicas:   replicas,
		Vnodes:     testVnodes,
	}, nd.keys, nd.store, s.svc)
	s.ring = rt
	// The pulse tests enable sampling/alerting on every node; the hook
	// must run before handler() because routes are wired there. Tests in
	// this package are serial, so a package variable is safe.
	if ringNodeSetup != nil {
		ringNodeSetup(tb, nd, s)
	}
	srv := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.handler()}}
	srv.Start()
	nd.s, nd.rt, nd.srv = s, rt, srv
	tb.Cleanup(func() { stopRingNode(nd) })
}

func bootRingNode(tb testing.TB, nd *ringTestNode, peers, join string) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := nd.rt.bootstrap(ctx, peers, join); err != nil {
		tb.Fatalf("bootstrap %s: %v", nd.id, err)
	}
}

// stopRingNode kills a node: replication worker first (it may still be
// shipping), then the listener. Idempotent, so deliberate mid-test
// kills coexist with the registered cleanups.
func stopRingNode(nd *ringTestNode) {
	if nd.rt != nil {
		nd.rt.Close()
	}
	if nd.srv != nil {
		nd.srv.Close()
	}
	nd.s, nd.rt, nd.srv = nil, nil, nil
}

func nodeByID(tb testing.TB, nodes []*ringTestNode, id string) *ringTestNode {
	tb.Helper()
	for _, nd := range nodes {
		if nd.id == id {
			return nd
		}
	}
	tb.Fatalf("no node %q", id)
	return nil
}

// ownerHomedOn scans generated owner names (starting at index from, so
// callers can demand distinct owners for the same target) until one's
// primary is the wanted node.
func ownerHomedOn(tb testing.TB, nodes []*ringTestNode, id string, from int) string {
	tb.Helper()
	for i := from; i < from+10000; i++ {
		owner := fmt.Sprintf("owner%d", i)
		if ns := nodes[0].rt.placement(ring.OwnerKey(owner)); len(ns) > 0 && ns[0].ID == id {
			return owner
		}
	}
	tb.Fatalf("no owner name hashes to %s", id)
	return ""
}

// entryAvoiding returns a node that is not owner's primary — the entry
// point that forces the forwarding path.
func entryAvoiding(tb testing.TB, nodes []*ringTestNode, owner string) *ringTestNode {
	tb.Helper()
	home := nodes[0].rt.placement(ring.OwnerKey(owner))[0].ID
	for _, nd := range nodes {
		if nd.id != home {
			return nd
		}
	}
	tb.Fatalf("all nodes own %q", owner)
	return nil
}

func waitUntil(tb testing.TB, timeout time.Duration, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

// TestRingWorkloadsAnyNode is the tentpole acceptance: on a 3-node ring
// every workload — upload, list, rows, protect, recover, cluster job —
// succeeds when entered through a node that does not own the data, and
// the protect release is byte-identical to a single-node daemon fed the
// same input and seed.
func TestRingWorkloadsAnyNode(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	ref, _ := newTestServer(t) // single-node reference

	for i, homeID := range []string{"n1", "n2", "n3"} {
		owner := ownerHomedOn(t, nodes, homeID, i*1000)
		entry := entryAvoiding(t, nodes, owner)
		other := nodes[(indexOf(nodes, entry)+1)%len(nodes)]
		csvBody, orig := testCSV(t, 300, i+1)

		// Upload through a non-owner node; the minted token must come
		// back through the proxy.
		_, tok := uploadDataset(t, entry.srv, owner, "d", "", "", csvBody)
		if tok == "" {
			t.Fatalf("forwarded upload for %s minted no token", owner)
		}

		// List and read back through a different node.
		var metas []datastore.Meta
		resp, body := getJSON(t, other.srv.URL+"/v1/datasets?owner="+owner, tok, &metas)
		if resp.StatusCode != http.StatusOK || len(metas) != 1 || metas[0].Name != "d" {
			t.Fatalf("cross-node list: %d %s (%+v)", resp.StatusCode, body, metas)
		}
		resp, rows := getJSON(t, other.srv.URL+"/v1/datasets/d/rows?owner="+owner, tok, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cross-node rows: %d %s", resp.StatusCode, rows)
		}
		got := parseCSVBody(t, rows)
		if got.Rows() != orig.Rows() || got.Cols() != orig.Cols() {
			t.Fatalf("rows via ring = %dx%d, want %dx%d", got.Rows(), got.Cols(), orig.Rows(), orig.Cols())
		}

		// Protect through the ring must match the single-node daemon
		// byte for byte.
		q := fmt.Sprintf("/v1/protect?owner=%s&rho1=0.3&rho2=0.3&seed=7", owner)
		resp, rel := postAuth(t, entry.srv.URL+q, tok, csvBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ring protect: %d %s", resp.StatusCode, rel)
		}
		refResp, refRel := post(t, ref.URL+q, csvBody)
		if refResp.StatusCode != http.StatusOK {
			t.Fatalf("reference protect: %d %s", refResp.StatusCode, refRel)
		}
		if rel != refRel {
			t.Fatalf("ring release differs from single-node release (%d vs %d bytes)", len(rel), len(refRel))
		}

		// Recover through yet another path inverts the release.
		resp, rec := postAuth(t, other.srv.URL+"/v1/recover?owner="+owner, tok, rel)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ring recover: %d %s", resp.StatusCode, rec)
		}
		recovered := parseCSVBody(t, rec)
		for r := 0; r < 3; r++ {
			for c := 0; c < orig.Cols(); c++ {
				if math.Abs(recovered.At(r, c)-orig.At(r, c)) > 1e-6 {
					t.Fatalf("recovered[%d,%d] = %v, want %v", r, c, recovered.At(r, c), orig.At(r, c))
				}
			}
		}

		// A cluster job: submitted, polled and resolved each through a
		// different node.
		st := submitJob(t, entry.srv, owner, tok, map[string]any{"type": "cluster", "dataset": "d", "k": 3})
		done := waitJob(t, other.srv, owner, tok, st.ID)
		if done.State != jobs.StateDone {
			t.Fatalf("ring job ended %s: %s", done.State, done.Error)
		}
		var res struct {
			K           int   `json:"k"`
			Assignments []int `json:"assignments"`
		}
		jobResult(t, entry.srv, owner, tok, st.ID, &res)
		if res.K != 3 || len(res.Assignments) != orig.Rows() {
			t.Fatalf("ring job result: k=%d assignments=%d", res.K, len(res.Assignments))
		}
	}

	// The entry nodes really proxied: the forward counter moved.
	var snap map[string]int64
	if resp, body := getJSON(t, nodes[0].srv.URL+"/v1/metrics", "", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	if snap["ring_nodes"] != 3 {
		t.Fatalf("ring_nodes = %d, want 3", snap["ring_nodes"])
	}
	total := int64(0)
	for _, nd := range nodes {
		var s map[string]int64
		getJSON(t, nd.srv.URL+"/v1/metrics", "", &s)
		total += s["ring_forwards_total"]
	}
	if total == 0 {
		t.Fatal("no request was ever forwarded — the ring never routed")
	}
}

func indexOf(nodes []*ringTestNode, nd *ringTestNode) int {
	for i := range nodes {
		if nodes[i] == nd {
			return i
		}
	}
	return -1
}

// TestRingFederationAcrossNodes runs the full federation lifecycle with
// each party talking to a different node: the federation record lands
// on the node its ID hashes to, joins and contributions are forwarded
// there, and every node serves the same joint result.
func TestRingFederationAcrossNodes(t *testing.T) {
	ctx := context.Background()
	nodes := startRing(t, 3, 1, "")
	parts, _, _, names := fedTestData(t, 240, 3, 3, 11)

	coord := ppclient.New(nodes[0].srv.URL, "fed-a")
	fed, err := coord.CreateFederation(ctx, ppclient.FederationConfig{
		Name: "ring-study", Columns: names, Rho1: 0.3, Rho2: 0.3, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	partyB := ppclient.New(nodes[1].srv.URL, "fed-b")
	partyC := ppclient.New(nodes[2].srv.URL, "fed-c")
	if _, err := partyB.JoinFederation(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := partyC.JoinFederation(ctx, fed.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Contribute(ctx, fed.ID, names, parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := partyB.Contribute(ctx, fed.ID, names, parts[1]); err != nil {
		t.Fatal(err)
	}
	fv, err := partyC.Contribute(ctx, fed.ID, names, parts[2])
	if err != nil {
		t.Fatal(err)
	}
	if fv.Contributions != 3 || fv.RowsTotal != 240 {
		t.Fatalf("after contributions: %+v", fv)
	}
	if _, err := coord.Seal(ctx, fed.ID, ppclient.Analysis{K: 3}); err != nil {
		t.Fatal(err)
	}

	// Each party polls its own node; all three must converge on the
	// identical joint result.
	results := make([][]byte, 3)
	for i, cl := range []*ppclient.Client{coord, partyB, partyC} {
		var res *ppclient.Result
		waitUntil(t, 30*time.Second, "federation result via "+nodes[i].id, func() bool {
			r, err := cl.Result(ctx, fed.ID)
			if err != nil {
				return false
			}
			res = r
			return true
		})
		if len(res.Assignments) != 240 || len(res.Parties) != 3 {
			t.Fatalf("result via %s: %d assignments, %d parties", nodes[i].id, len(res.Assignments), len(res.Parties))
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = raw
	}
	if !bytes.Equal(results[0], results[1]) || !bytes.Equal(results[0], results[2]) {
		t.Fatal("federation result differs between nodes")
	}
}

// TestRingFailoverReplica kills an owner's home node after replication
// settles and verifies the remaining nodes keep serving that owner —
// reads from the successor's replica, and new writes (a protect fit)
// authenticated against the replicated credential.
func TestRingFailoverReplica(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	victim := nodes[2]
	owner := ownerHomedOn(t, nodes, victim.id, 0)
	csvBody, orig := testCSV(t, 200, 5)

	_, tok := uploadDataset(t, nodes[0].srv, owner, "d", "", "", csvBody)
	if tok == "" {
		t.Fatal("upload minted no token")
	}

	// Wait for the async replication to land on the successor.
	succID := nodes[0].rt.placement(ring.OwnerKey(owner))[1].ID
	succ := nodeByID(t, nodes, succID)
	waitUntil(t, 10*time.Second, "replication to "+succID, func() bool {
		if _, err := succ.store.Get(owner, "d"); err != nil {
			return false
		}
		_, err := succ.keys.TokenHash(owner)
		return err == nil
	})

	stopRingNode(victim)

	for _, nd := range nodes[:2] {
		var meta datastore.Meta
		resp, body := getJSON(t, nd.srv.URL+"/v1/datasets/d?owner="+owner, tok, &meta)
		if resp.StatusCode != http.StatusOK || meta.Rows != orig.Rows() {
			t.Fatalf("read via %s after home death: %d %s", nd.id, resp.StatusCode, body)
		}
	}

	// A new write against the dead owner's key: the replica serves it.
	resp, rel := postAuth(t, nodes[0].srv.URL+"/v1/protect?owner="+owner+"&seed=9", tok, csvBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect after home death: %d %s", resp.StatusCode, rel)
	}
	if parseCSVBody(t, rel).Rows() != orig.Rows() {
		t.Fatal("failover protect returned wrong row count")
	}
}

// TestRingDoubleJoinConflict: the same node ID announcing a different
// address is a conflict (409); the same ID re-announcing its own
// address is an idempotent rejoin.
func TestRingDoubleJoinConflict(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	epochBefore, _ := nodes[0].rt.ring.Snapshot()

	resp, body := post(t, nodes[0].srv.URL+"/v1/ring/join", `{"id":"n2","addr":"http://127.0.0.1:1"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting join: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, nodes[0].srv.URL+"/v1/ring/join", fmt.Sprintf(`{"id":"n2","addr":%q}`, nodes[1].addr))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent rejoin: %d %s", resp.StatusCode, body)
	}
	if epochAfter, _ := nodes[0].rt.ring.Snapshot(); epochAfter != epochBefore {
		t.Fatalf("rejoin bumped the epoch %d → %d", epochBefore, epochAfter)
	}
}

// TestRingHopLoopGuard: a forwarded request that has already travelled
// maxHops is refused with 508 instead of bouncing again.
func TestRingHopLoopGuard(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	owner := ownerHomedOn(t, nodes, "n2", 0)

	req, err := http.NewRequest(http.MethodGet, nodes[0].srv.URL+"/v1/datasets?owner="+owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(hdrHop, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusLoopDetected {
		t.Fatalf("looped request: %d, want 508", resp.StatusCode)
	}
	// One hop below the bound still forwards normally.
	req.Header.Set(hdrHop, "1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusLoopDetected {
		t.Fatal("hop 1 must still forward")
	}
}

// TestRingClusterKeyGuard: with a shared cluster key configured, the
// internal ring routes reject callers without it while the public
// status route stays open.
func TestRingClusterKeyGuard(t *testing.T) {
	nodes := startRing(t, 1, 0, "s3cr3t")
	base := nodes[0].srv.URL

	resp, body := post(t, base+"/v1/ring/sync", `{"epoch":1,"nodes":[]}`)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("keyless sync: %d %s", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/ring/sync", strings.NewReader(`{"epoch":0,"nodes":[]}`))
	req.Header.Set(hdrClusterKey, "s3cr3t")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("keyed sync: %d", resp2.StatusCode)
	}
	var st ppclient.RingStatus
	if resp, body := getJSON(t, base+"/v1/ring", "", &st); resp.StatusCode != http.StatusOK || !st.Enabled {
		t.Fatalf("public status: %d %s", resp.StatusCode, body)
	}
}

// TestRingJoinDuringJob grows the ring from 3 to 4 nodes while a job is
// in flight: the job on an owner whose placement does not move must
// finish undisturbed, and an owner that remaps to the new node has its
// dataset (and credential) pulled over by the join catch-up.
func TestRingJoinDuringJob(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	ln4, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n4 := &ringTestNode{id: "n4", host: ln4.Addr().String(), addr: "http://" + ln4.Addr().String()}

	// Predict post-join placement with a scratch ring so the test can
	// pick one owner that stays put and one that moves to n4.
	scratch := ring.New(testVnodes)
	scratch.Seed(1, []ring.Node{{ID: "n1"}, {ID: "n2"}, {ID: "n3"}, {ID: "n4"}})
	var stay, move string
	for i := 0; (stay == "" || move == "") && i < 10000; i++ {
		owner := fmt.Sprintf("owner%d", i)
		before := nodes[0].rt.placement(ring.OwnerKey(owner))[0].ID
		after := scratch.Place(ring.OwnerKey(owner), 0)[0].ID
		switch {
		case move == "" && after == "n4":
			move = owner
		case stay == "" && after == before:
			stay = owner
		}
	}
	if stay == "" || move == "" {
		t.Fatalf("could not find stay/move owners (stay=%q move=%q)", stay, move)
	}

	csvBody, _ := testCSV(t, 400, 3)
	_, tokStay := uploadDataset(t, nodes[0].srv, stay, "d", "", "", csvBody)
	_, tokMove := uploadDataset(t, nodes[1].srv, move, "dm", "", "", csvBody)

	st := submitJob(t, nodes[0].srv, stay, tokStay, map[string]any{"type": "cluster", "dataset": "d", "kmin": 2, "kmax": 8})

	startRingNode(t, n4, ln4, "", nodes[0].addr, 1, "")
	for _, nd := range nodes {
		nd := nd
		waitUntil(t, 10*time.Second, nd.id+" sees 4 members", func() bool {
			_, members := nd.rt.ring.Snapshot()
			return len(members) == 4
		})
	}

	done := waitJob(t, nodes[1].srv, stay, tokStay, st.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job across the join ended %s: %s", done.State, done.Error)
	}

	// The moved owner is now served by n4 — locally and via any entry.
	for _, entry := range []*ringTestNode{n4, nodes[0]} {
		var meta datastore.Meta
		resp, body := getJSON(t, entry.srv.URL+"/v1/datasets/dm?owner="+move, tokMove, &meta)
		if resp.StatusCode != http.StatusOK || meta.Name != "dm" {
			t.Fatalf("moved owner via %s: %d %s", entry.id, resp.StatusCode, body)
		}
	}
	if _, err := n4.store.Get(move, "dm"); err != nil {
		t.Fatalf("join catch-up never pulled %s/dm to n4: %v", move, err)
	}
}

// TestRingRestartCatchUp: a node dies, writes for its owners keep
// landing on the surviving replica, and when the node comes back (same
// identity and stores) its bootstrap catch-up pulls the writes it
// missed.
func TestRingRestartCatchUp(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	victim := nodes[2]
	owner := ownerHomedOn(t, nodes, victim.id, 0)
	csvBody, orig := testCSV(t, 150, 8)

	_, tok := uploadDataset(t, nodes[0].srv, owner, "d1", "", "", csvBody)
	succID := nodes[0].rt.placement(ring.OwnerKey(owner))[1].ID
	succ := nodeByID(t, nodes, succID)
	waitUntil(t, 10*time.Second, "replication to "+succID, func() bool {
		_, errD := succ.store.Get(owner, "d1")
		_, errK := succ.keys.TokenHash(owner)
		return errD == nil && errK == nil
	})

	stopRingNode(victim)

	// A write while the home node is down lands on the replica.
	_, tok2 := uploadDataset(t, nodes[0].srv, owner, "d2", tok, "", csvBody)
	if tok2 != "" {
		t.Fatal("existing owner must not be re-minted a token")
	}

	// Restart with the stores it kept: catch-up must fetch d2.
	startRingNode(t, victim, nil, victim.peers, "", 1, "")
	if _, err := victim.store.Get(owner, "d2"); err != nil {
		t.Fatalf("restart catch-up missed %s/d2: %v", owner, err)
	}
	var meta datastore.Meta
	resp, body := getJSON(t, victim.srv.URL+"/v1/datasets/d2?owner="+owner, tok, &meta)
	if resp.StatusCode != http.StatusOK || meta.Rows != orig.Rows() {
		t.Fatalf("restarted home serving d2: %d %s", resp.StatusCode, body)
	}
}

// TestRingPlannedLeaveDrains: a node told to leave ({"id": self})
// pushes everything it holds to the post-leave placement before it
// answers. With no replicas the owner's keyring and dataset exist only
// on the leaver, so the new home can serve them with the old token only
// if the drain shipped both.
func TestRingPlannedLeaveDrains(t *testing.T) {
	nodes := startRing(t, 3, 0, "")
	leaver := nodes[2]
	owner := ownerHomedOn(t, nodes, leaver.id, 0)
	csvBody, orig := testCSV(t, 120, 6)
	_, tok := uploadDataset(t, nodes[0].srv, owner, "d", "", "", csvBody)
	if tok == "" {
		t.Fatal("upload minted no token")
	}

	if resp, body := post(t, leaver.addr+"/v1/ring/leave", `{"id":"`+leaver.id+`"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: %d %s", resp.StatusCode, body)
	}
	home := nodeByID(t, nodes, nodes[0].rt.placement(ring.OwnerKey(owner))[0].ID)
	if home == leaver {
		t.Fatal("owner still placed on the node that left")
	}
	var meta datastore.Meta
	resp, body := getJSON(t, home.srv.URL+"/v1/datasets/d?owner="+owner, tok, &meta)
	if resp.StatusCode != http.StatusOK || meta.Rows != orig.Rows() {
		t.Fatalf("new home %s serving d after the drain: %d %s", home.id, resp.StatusCode, body)
	}
}

// TestRingImportKeepsCopyOnFailedTransfer: replication and catch-up
// build an incoming dataset in full before they replace the local copy.
// On a 1-node ring holding a labeled d, a later transfer cut 30 bytes
// short and a later one carrying a NaN are refused and leave d
// bit-identical, as do an equal and an older complete transfer; a later
// complete one replaces d with its rows and labels.
func TestRingImportKeepsCopyOnFailedTransfer(t *testing.T) {
	nd := startRing(t, 1, 0, "")[0]
	uploadDataset(t, nd.srv, "keeper", "d", "", "&labels=last", blobsCSV(t, 90, 3, 6))
	// held is d's frames as a transfer would ship them, and its stamp.
	held := func() (string, time.Time) {
		t.Helper()
		ds, err := nd.store.Get("keeper", "d")
		if err != nil {
			t.Fatalf("d: %v", err)
		}
		var buf bytes.Buffer
		if err := encodeDatasetFrames(&buf, ds); err != nil {
			t.Fatal(err)
		}
		return buf.String(), ds.CreatedAt
	}
	orig, created := held()
	send := func(createdAt time.Time, body []byte) (int, string) {
		t.Helper()
		u := nd.srv.URL + "/v1/ring/replicate/dataset?owner=keeper&name=d&created_at=" +
			url.QueryEscape(createdAt.Format(time.RFC3339Nano))
		resp, raw := postBinary(t, u, "", body)
		return resp.StatusCode, string(raw)
	}
	m := matrix.RandomDense(70, 4, rand.New(rand.NewSource(7)))
	labels := make([]int, m.Rows())
	for i := range labels {
		labels[i] = i % 3
	}
	next := renderLabeled(t, m, labels, 16)
	nan := m.Clone()
	nan.SetAt(50, 2, math.NaN())
	later := created.Add(time.Second)
	refused := []struct {
		name string
		at   time.Time
		body []byte
	}{
		{"cut 30 bytes short", later, next[:len(next)-30]},
		{"carrying a NaN", later, renderLabeled(t, nan, labels, 16)},
	}
	for _, tc := range refused {
		code, msg := send(tc.at, tc.body)
		var env service.ErrorEnvelope
		if code != http.StatusBadRequest || json.Unmarshal([]byte(msg), &env) != nil || env.Error.Code != service.CodeInvalid {
			t.Fatalf("later transfer %s: %d %s, want 400 invalid", tc.name, code, msg)
		}
		if got, heldAt := held(); got != orig || !heldAt.Equal(created) {
			t.Fatalf("later transfer %s changed d", tc.name)
		}
	}
	for _, at := range []time.Time{created, created.Add(-time.Second)} {
		if code, msg := send(at, next); code != http.StatusOK {
			t.Fatalf("transfer stamped %v: %d %s", at.Sub(created), code, msg)
		}
		if got, heldAt := held(); got != orig || !heldAt.Equal(created) {
			t.Fatalf("transfer stamped %v replaced the newer d", at.Sub(created))
		}
	}
	if code, msg := send(later, next); code != http.StatusOK {
		t.Fatalf("later complete transfer: %d %s", code, msg)
	}
	ds, err := nd.store.Get("keeper", "d")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if !ds.CreatedAt.Equal(later) || !bitIdentical(got, m) || !slices.Equal(ds.Labels(), labels) {
		t.Fatal("later complete transfer did not replace d with its rows and labels")
	}
}

// TestPeerRefusalNamesMessage: when a peer refuses a dataset transfer, a
// catch-up fetch or an internal JSON call, the error that replication
// and catch-up log names the status and the message of the peer's error
// envelope, not the envelope's raw JSON.
func TestPeerRefusalNamesMessage(t *testing.T) {
	const msg = "ring: transfer for keeper/d: truncated stream"
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		writeErr(w, service.Invalid(errors.New(msg)))
	}))
	defer peer.Close()
	rt := &ringRuntime{clients: map[string]*ppclient.Client{}}
	b, err := datastore.NewBuilder("keeper", "d", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	ds, err := b.Finish(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, rtErr := rt.roundTrip(ctx, peer.URL, http.MethodPost, "/v1/ring/replicate/dataset-delete", datasetRef{Owner: "keeper", Name: "d"}, nil)
	for name, err := range map[string]error{
		"dataset transfer": rt.sendDataset(ctx, peer.URL, ds),
		"dataset fetch":    rt.fetchDataset(ctx, ring.Node{ID: "p", Addr: peer.URL}, "keeper", "d"),
		"JSON call":        rtErr,
	} {
		if err == nil || !strings.Contains(err.Error(), ": 400: "+msg) || strings.Contains(err.Error(), `{"error"`) {
			t.Errorf("%s refused by the peer: %v, want the status and the envelope's message", name, err)
		}
	}
}

// TestAdmissionHTTP429: a server with per-owner admission control sheds
// excess load with the 429 envelope once the burst and queue are
// exhausted, and /v1/ring traffic is exempt.
func TestAdmissionHTTP429(t *testing.T) {
	mgr := jobs.New(jobs.Config{Workers: 1})
	t.Cleanup(mgr.Close)
	s := newServerAdm(engine.New(2, 1024), keyring.NewMemory(), datastore.NewMemory(), mgr, federation.NewMemory(),
		// A bucket that effectively never refills: the second request
		// queues for a refill that will not come within its deadline.
		service.AdmissionConfig{Rate: 0.0001, Burst: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)

	csvBody, _ := testCSV(t, 20, 1)
	resp, body := post(t, ts.URL+"/v1/datasets?owner=adm&name=a", csvBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first request: %d %s", resp.StatusCode, body)
	}

	// Park a second admission in the one-deep reservation queue, where
	// it will wait (far beyond the test) for a refill that never comes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		_ = s.svc.Admit(ctx, "adm")
	}()
	waitUntil(t, 10*time.Second, "second request to queue", func() bool {
		return s.svc.MetricsSnapshot()["admission_throttled_total"] >= 1
	})

	// With the burst spent and the queue full, the third request is shed
	// immediately with the typed envelope.
	resp, body = post(t, ts.URL+"/v1/datasets?owner=adm&name=c", csvBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %d %s, want 429", resp.StatusCode, body)
	}
	var env service.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != "rate_limited" {
		t.Fatalf("429 body is not the rate_limited envelope: %s", body)
	}
	cancel()
	<-parked
}
