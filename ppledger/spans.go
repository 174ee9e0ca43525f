package main

import (
	"sort"
	"time"

	"ppclust/internal/obs"
)

// selfUs is a span's duration minus the union of its descendants'
// intervals, each clipped to the span's own interval: the time the span
// spent in its own code rather than waiting on work below it. Taking
// every descendant rather than only the children matters because the
// engine records engine.rotate as a child of engine.normalize although it
// runs after normalize has ended; for a properly nested tree the two
// unions are the same.
func selfUs(n *obs.SpanNode) int64 {
	lo, hi := n.StartUs, n.StartUs+n.DurUs
	type interval struct{ a, b int64 }
	var ivs []interval
	for _, c := range n.Children {
		walk(c, func(d *obs.SpanNode) {
			a, b := max(d.StartUs, lo), min(d.StartUs+d.DurUs, hi)
			if b > a {
				ivs = append(ivs, interval{a, b})
			}
		})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	end := lo
	for _, iv := range ivs {
		if iv.a > end {
			end = iv.a
		}
		if iv.b > end {
			covered += iv.b - end
			end = iv.b
		}
	}
	return n.DurUs - covered
}

// walk visits every span of the tree rooted at n.
func walk(n *obs.SpanNode, visit func(*obs.SpanNode)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		walk(c, visit)
	}
}

// sumSelf totals the self time of every span called name, in µs.
func sumSelf(root *obs.SpanNode, name string) (us int64, found bool) {
	walk(root, func(n *obs.SpanNode) {
		if n.Name == name {
			us += selfUs(n)
			found = true
		}
	})
	return us, found
}

// sumDur totals the duration of every span called name, in µs.
func sumDur(root *obs.SpanNode, name string) (us int64, found bool) {
	walk(root, func(n *obs.SpanNode) {
		if n.Name == name {
			us += n.DurUs
			found = true
		}
	})
	return us, found
}

// firstNamed returns the shallowest span called name (breadth first).
func firstNamed(root *obs.SpanNode, name string) *obs.SpanNode {
	queue := []*obs.SpanNode{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == nil {
			continue
		}
		if n.Name == name {
			return n
		}
		queue = append(queue, n.Children...)
	}
	return nil
}

// shift moves every span of the tree by us microseconds.
func shift(n *obs.SpanNode, us int64) {
	walk(n, func(s *obs.SpanNode) { s.StartUs += us })
}

// graft hangs the server's stitched span tree, which starts at serverStart
// on the wall clock, under the client span that started at clientStart.
// Driver and daemons share one machine clock, so the offset is exact up
// to clock resolution.
func graft(client *obs.SpanNode, clientStart time.Time, server *obs.SpanNode, serverStart time.Time) *obs.SpanNode {
	shift(server, serverStart.Sub(clientStart).Microseconds())
	client.Children = append(client.Children, server)
	return client
}
