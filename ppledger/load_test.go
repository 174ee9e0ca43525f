package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestKeptOperationsCoverEveryOwner checks that the responses kept for
// the output checks reach every owner, every checked operation kind the
// owner runs and, for reads, every set-up dataset.
func TestKeptOperationsCoverEveryOwner(t *testing.T) {
	type key struct {
		owner   int
		op      opKind
		dataset int
	}
	for _, wl := range workloads {
		ran, kept := map[key]bool{}, map[key]bool{}
		n := int64(wl.owners*len(wl.cycle)*max(wl.readSets, 1)) * wl.keepEvery
		for i := int64(0); i < n; i++ {
			op, o := wl.opAt(i)
			if op != opProtect && op != opFit && op != opRead {
				continue // cluster results are always kept; the rest have no body
			}
			k := key{owner: o, op: op}
			if op == opRead {
				k.dataset = wl.datasetAt(i)
			}
			ran[k] = true
			if wl.keeps(i) {
				kept[k] = true
			}
		}
		for k := range ran {
			if !kept[k] {
				t.Errorf("%s: no %s response of owner %d (dataset %d) is kept in %d operations", wl.name, k.op, k.owner, k.dataset, n)
			}
		}
	}
}

// TestFailedDeleteIsRetried checks that a failed delete leaves its upload
// queued, and that an upload whose request failed is queued anyway, with
// a delete that finds nothing counted as done.
func TestFailedDeleteIsRetried(t *testing.T) {
	var deletes []string
	failNext := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			http.Error(w, "disk full", http.StatusInternalServerError)
		case strings.HasSuffix(r.URL.Path, "/u9"):
			http.NotFound(w, r)
		case failNext:
			failNext = false
			http.Error(w, "try again", http.StatusServiceUnavailable)
		default:
			deletes = append(deletes, r.URL.Path)
		}
	}))
	defer srv.Close()
	wl, err := workloadByName("ring-mixed")
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{wl: wl, httpc: srv.Client()}
	o := &owner{name: "bench-0", entry: srv.URL, in: &ownerInputs{}, nextUpload: 8}
	o.pushUpload(liveUpload{name: "u1"})
	ctx, buf := context.Background(), &bytes.Buffer{}

	if err := d.deleteOp(ctx, buf, &sample{}, o, ""); err == nil {
		t.Fatal("delete answered 503, want an error")
	}
	if err := d.deleteOp(ctx, buf, &sample{}, o, ""); err != nil {
		t.Fatalf("retried delete: %v", err)
	}
	if len(deletes) != 1 || deletes[0] != "/v1/datasets/u1" {
		t.Fatalf("deleted %v, want u1 once", deletes)
	}

	if err := d.uploadOp(ctx, buf, &sample{}, o, ""); err == nil {
		t.Fatal("upload answered 500, want an error")
	}
	if err := d.deleteOp(ctx, buf, &sample{}, o, ""); err != nil {
		t.Fatalf("delete of the failed upload u9: %v", err)
	}
	if _, ok := o.popUpload(); ok {
		t.Error("uploads remain queued after every one was deleted")
	}
}
