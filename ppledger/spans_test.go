package main

import (
	"testing"
	"time"

	"ppclust/internal/obs"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Parent [0,100). Children [10,40) and [30,60) overlap on [30,40);
	// [90,130) runs past the parent's end and counts only up to 100;
	// [20,25) lies inside the first child and adds nothing.
	parent := &obs.SpanNode{Name: "http", StartUs: 0, DurUs: 100, Children: []*obs.SpanNode{
		{Name: "a", StartUs: 10, DurUs: 30},
		{Name: "b", StartUs: 30, DurUs: 30},
		{Name: "c", StartUs: 90, DurUs: 40},
		{Name: "d", StartUs: 20, DurUs: 5},
	}}
	// Covered: [10,60) and [90,100) = 60 µs, so self = 40 µs.
	if got := selfUs(parent); got != 40 {
		t.Errorf("selfUs = %d, want 40", got)
	}
	// engine.rotate is recorded under engine.normalize but runs after it
	// ended; it still counts against the enclosing span.
	fit := &obs.SpanNode{Name: "service.fit", StartUs: 0, DurUs: 100, Children: []*obs.SpanNode{
		{Name: "engine.normalize", StartUs: 10, DurUs: 10, Children: []*obs.SpanNode{
			{Name: "engine.rotate", StartUs: 20, DurUs: 60},
		}},
	}}
	if got := selfUs(fit); got != 30 {
		t.Errorf("selfUs with an escaped grandchild = %d, want 30", got)
	}
	leaf := &obs.SpanNode{Name: "leaf", StartUs: 5, DurUs: 7}
	if got := selfUs(leaf); got != 7 {
		t.Errorf("selfUs of a leaf = %d, want its duration 7", got)
	}
}

func TestSumSelfNestedSameName(t *testing.T) {
	// An entry node's http span forwards to a home node whose http span
	// nests inside ring.forward: both http self times count once each.
	home := &obs.SpanNode{Name: "http", StartUs: 30, DurUs: 50, Children: []*obs.SpanNode{
		{Name: "auth", StartUs: 35, DurUs: 5},
	}}
	fwd := &obs.SpanNode{Name: "ring.forward", StartUs: 20, DurUs: 70, Children: []*obs.SpanNode{home}}
	entry := &obs.SpanNode{Name: "http", StartUs: 0, DurUs: 100, Children: []*obs.SpanNode{fwd}}
	httpSelf, ok := sumSelf(entry, "http")
	if !ok || httpSelf != 30+45 {
		t.Errorf("sumSelf(http) = %d, %v; want 75, true", httpSelf, ok)
	}
	if fwdSelf, _ := sumSelf(entry, "ring.forward"); fwdSelf != 20 {
		t.Errorf("sumSelf(ring.forward) = %d, want 20", fwdSelf)
	}
	if _, ok := sumDur(entry, "ingest"); ok {
		t.Error("sumDur found a span that is not in the tree")
	}
}

func TestGraftAlignsServerTree(t *testing.T) {
	clientStart := time.Unix(100, 0)
	client := &obs.SpanNode{Name: "client", DurUs: 1000}
	server := &obs.SpanNode{Name: "http", StartUs: 0, DurUs: 800, Children: []*obs.SpanNode{
		{Name: "auth", StartUs: 10, DurUs: 5},
	}}
	tree := graft(client, clientStart, server, clientStart.Add(150*time.Microsecond))
	if h := firstNamed(tree, "http"); h == nil || h.StartUs != 150 || h.Children[0].StartUs != 160 {
		t.Fatalf("server tree not shifted onto the client clock: %+v", h)
	}
	if got := selfUs(tree); got != 200 {
		t.Errorf("client self = %d, want 200 (1000 - 800)", got)
	}
}
