package ppclient

// Ring awareness: any ppclustd node proxies any request to the right
// owner, so a client never *needs* to know the ring exists. Knowing it
// saves a network hop per call: UseRing fetches the membership once and
// routes owner-scoped requests straight to the owner's home node with
// the same consistent-hash placement the daemons use.

import (
	"context"
	"net/http"
	"strings"

	"ppclust/internal/ring"
)

type (
	// RingNode is one member of a ppclustd ring.
	RingNode = ring.Node
	// RingStatus is GET /v1/ring: the node's view of the membership.
	RingStatus = ring.Status
)

// RingStatus fetches the answering node's view of the ring. A daemon
// running single-node reports Enabled=false.
func (c *Client) RingStatus(ctx context.Context) (*RingStatus, error) {
	var out RingStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v1/ring", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// UseRing fetches the ring membership from BaseURL and routes subsequent
// owner-scoped requests directly to the owner's home node instead of
// letting an arbitrary node forward them. A no-op (returning nil) when
// the daemon is not in ring mode. Call it again to refresh after
// membership changes; stale placement is harmless — the receiving node
// forwards — just one hop slower.
func (c *Client) UseRing(ctx context.Context) error {
	st, err := c.RingStatus(ctx)
	if err != nil {
		return err
	}
	if !st.Enabled || len(st.Nodes) == 0 {
		return nil
	}
	r := ring.New(st.Vnodes)
	r.Seed(st.Epoch, st.Nodes)
	c.ringMu.Lock()
	c.ringTable = r
	c.ringMu.Unlock()
	return nil
}

// routeBase picks the base URL for a request path: the owner's home
// node when a ring table is loaded, BaseURL otherwise. Federation
// routes are left on BaseURL — their placement key is the federation
// ID, which the serving node resolves (and forwards) itself.
func (c *Client) routeBase(path string) string {
	c.ringMu.RLock()
	table := c.ringTable
	c.ringMu.RUnlock()
	if table == nil || strings.HasPrefix(path, "/v1/federations") || strings.HasPrefix(path, "/v1/ring") {
		return c.BaseURL
	}
	n, ok := table.Owner(ring.OwnerKey(c.Owner))
	if !ok || n.Addr == "" {
		return c.BaseURL
	}
	return strings.TrimRight(n.Addr, "/")
}
