package ppclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestRetryConnRefusedWrite: connection-refused to a dead peer is
// retried for a *write* with a rewindable body — the forwarded-request
// case. A ring node forwarding to a peer that just died gets ECONNREFUSED;
// the peer never saw the request, so the resend (here: to the same
// address after the "node" comes back) must happen instead of surfacing
// the dial error.
func TestRetryConnRefusedWrite(t *testing.T) {
	// Reserve an address, then close the listener: dials now get refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var mu sync.Mutex
	var bodies []string
	started := make(chan struct{})
	go func() {
		// "Restart the node" on the same address after a moment.
		time.Sleep(30 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		close(started)
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			raw, _ := io.ReadAll(r.Body)
			mu.Lock()
			bodies = append(bodies, string(raw))
			mu.Unlock()
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"j1","state":"queued"}`))
		})}
		go srv.Serve(ln2)
	}()

	c := New("http://"+addr, "alice")
	c.Token = "tok"
	c.Retries = 8
	c.RetryBackoff = 20 * time.Millisecond
	st, err := c.SubmitJob(context.Background(), map[string]any{"type": "cluster", "dataset": "d", "k": 2})
	if err != nil {
		t.Fatalf("submit across refused connections: %v", err)
	}
	if st.ID != "j1" {
		t.Fatalf("status = %+v", st)
	}
	<-started
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 || bodies[0] == "" {
		t.Fatalf("server saw %d requests (%q); want exactly the one replayed body", len(bodies), bodies)
	}
}

// TestNoRetryConnRefusedUnrewindable: refused + a consumed stream body
// must surface, not silently truncate a resend.
func TestNoRetryConnRefusedUnrewindable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := New("http://"+addr, "alice")
	c.Retries = 3
	c.RetryBackoff = time.Millisecond
	pr, pw := io.Pipe()
	go func() {
		pw.Write([]byte("a,b\n1,2\n"))
		pw.Close()
	}()
	start := time.Now()
	_, err = c.UploadDatasetCSV(context.Background(), "d", pr, false)
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("want ECONNREFUSED, got %v", err)
	}
	// No backoff rounds should have happened for an unrewindable body.
	if time.Since(start) > 2*time.Second {
		t.Fatal("unrewindable refused write appears to have been retried")
	}
}

// TestConnRefusedDetection: the classifier that gates write retries.
func TestConnRefusedDetection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, derr := http.Get("http://" + addr)
	if !connRefused(derr) {
		t.Fatalf("dial to closed port not classified as refused: %v", derr)
	}
	if connRefused(nil) || connRefused(errors.New("boom")) {
		t.Fatal("false positives")
	}
	if connRefused(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)) {
		t.Fatal("timeout misclassified as refused")
	}
}

// TestDoRawPassesStatusesThrough: DoRaw returns non-retryable non-2xx
// responses as responses — headers, status and body intact — which is
// what lets the ring proxy relay an owner's 404 or 409 verbatim.
func TestDoRawPassesStatusesThrough(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":{"code":"conflict","message":"taken"}}`))
	}))
	defer ts.Close()
	c := New(ts.URL, "alice")
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/d", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.DoRaw(req)
	if err != nil {
		t.Fatalf("DoRaw errored on a 409: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || resp.Header.Get("X-Custom") != "yes" {
		t.Fatalf("status=%d headers=%v", resp.StatusCode, resp.Header)
	}
	raw, _ := io.ReadAll(resp.Body)
	if string(raw) != `{"error":{"code":"conflict","message":"taken"}}` {
		t.Fatalf("body = %q", raw)
	}
}

// TestUseRingRoutsToOwnerNode: after UseRing, owner-keyed calls go to
// the owner's home node, not the bootstrap node.
func TestUseRingRoutesToOwnerNode(t *testing.T) {
	var mu sync.Mutex
	hits := map[string]int{}
	mk := func(name string, status *RingStatus) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[name]++
			mu.Unlock()
			if r.URL.Path == "/v1/ring" {
				json := fmt.Sprintf(`{"enabled":true,"self":%q,"epoch":1,"vnodes":16,"replicas":1,"nodes":[{"id":"a","addr":%q},{"id":"b","addr":%q}]}`,
					name, status.Nodes[0].Addr, status.Nodes[1].Addr)
				w.Write([]byte(json))
				return
			}
			w.Write([]byte(`[]`))
		}))
	}
	// Two servers; fill addresses in after both exist.
	st := &RingStatus{Nodes: []RingNode{{ID: "a"}, {ID: "b"}}}
	sa := mk("a", st)
	defer sa.Close()
	sb := mk("b", st)
	defer sb.Close()
	st.Nodes[0].Addr = sa.URL
	st.Nodes[1].Addr = sb.URL

	c := New(sa.URL, "some-owner")
	c.Token = "tok"
	if err := c.UseRing(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Datasets(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The datasets call must have gone to whichever node owns
	// "owner:some-owner" under the same hash the daemons use.
	want := "a"
	if n, ok := c.ringTable.Owner("owner:some-owner"); ok && n.ID == "b" {
		want = "b"
	}
	mu.Lock()
	defer mu.Unlock()
	other := map[string]string{"a": "b", "b": "a"}[want]
	if hits[want] < 1 {
		t.Fatalf("owner node %q never hit: %v", want, hits)
	}
	// The other node saw only the bootstrap RingStatus call (if that).
	if other == "a" && hits["a"] > 1 {
		t.Fatalf("non-owner bootstrap node hit beyond /v1/ring: %v", hits)
	}
	if other == "b" && hits["b"] > 0 {
		t.Fatalf("non-owner node hit: %v", hits)
	}
}
