package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/obs"
)

// clusterK is the k of every cluster job.
const clusterK = 3

// jobPoll is the cluster-job status poll interval. It is far below a
// job's run time so polling does not quantize the measured latency.
const jobPoll = 5 * time.Millisecond

// sample is one operation as the client saw it.
type sample struct {
	op      opKind
	owner   int
	dataset int // index of the set-up dataset a read or job touched
	start   time.Time
	dur     time.Duration
	rows    int   // rows in the operation's bodies
	out, in int64 // request and response body bytes
	// requests counts the HTTP requests the operation issued.
	requests int
	err      error

	// kept is a copy of the response body, retained for the output
	// checks on the operations workload.keeps picks and every cluster job.
	kept []byte
	// job is a cluster job's final status.
	job *jobStatus

	// trace is the client span of a traced operation; its ID was pinned
	// on the operation's first request.
	trace *obs.Trace
}

// phase is the outcome of one closed-loop measuring window.
type phase struct {
	samples []*sample
	start   time.Time
	elapsed time.Duration
}

// runPhase drives the deployment with its clients for dur, or until they
// have issued maxRequests HTTP requests (0: no limit). Each client starts
// operations until then; the phase ends when the last one completes.
func (d *deployment) runPhase(ctx context.Context, dur time.Duration, traced bool, maxRequests int64) phase {
	start := time.Now()
	end := start.Add(dur)
	per := make([][]*sample, d.clients)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Now().Before(end) && (maxRequests == 0 || issued.Load() < maxRequests) {
				s := d.do(ctx, &buf, d.next.Add(1)-1, traced)
				issued.Add(int64(s.requests))
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	p := phase{start: start, elapsed: time.Since(start)}
	for _, ss := range per {
		p.samples = append(p.samples, ss...)
	}
	return p
}

// do runs operation i and times it. Response copies for the checks are
// taken after the clock has stopped.
func (d *deployment) do(ctx context.Context, buf *bytes.Buffer, i int64, traced bool) *sample {
	op, oi := d.wl.opAt(i)
	o := d.owners[oi]
	s := &sample{op: op, owner: oi, dataset: d.wl.datasetAt(i)}
	traceID := ""
	var span *obs.Span
	s.start = time.Now()
	if traced {
		ctx, span = obs.StartTrace(ctx, "", "client")
		s.trace = obs.FromContext(ctx)
		traceID = s.trace.ID()
	}
	var body []byte
	switch op {
	case opProtect, opFit:
		body, s.err = d.protect(ctx, buf, s, o, traceID)
	case opUpload:
		s.err = d.uploadOp(ctx, buf, s, o, traceID)
	case opDelete:
		s.err = d.deleteOp(ctx, buf, s, o, traceID)
	case opRead:
		body, s.err = d.read(ctx, buf, s, o, traceID)
	case opCluster:
		body, s.err = d.cluster(ctx, buf, s, o, traceID)
	}
	s.dur = time.Since(s.start)
	span.End()
	// Cluster results are small, so every one is checked.
	if s.err == nil && body != nil && (op == opCluster || d.wl.keeps(i)) {
		s.kept = bytes.Clone(body)
	}
	return s
}

func (d *deployment) protect(ctx context.Context, buf *bytes.Buffer, s *sample, o *owner, traceID string) ([]byte, error) {
	url := o.entry + "/v1/protect?owner=" + o.name + "&format=" + d.wl.wire
	if s.op == opProtect {
		url += "&mode=stream"
	}
	rep, err := d.exchange(ctx, buf, s, http.MethodPost, url, d.wl.contentType(), o.in.body.raw, o.token, traceID)
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s", s.op, o.name, rep.describe())
	}
	s.rows = o.in.body.m.Rows()
	return rep.body, nil
}

func (d *deployment) uploadOp(ctx context.Context, buf *bytes.Buffer, s *sample, o *owner, traceID string) error {
	name := o.newUploadName()
	rep, err := d.exchange(ctx, buf, s, http.MethodPost,
		o.entry+"/v1/datasets?owner="+o.name+"&name="+name+"&format="+d.wl.wire,
		d.wl.contentType(), o.in.body.raw, o.token, traceID)
	if err == nil && rep.status != http.StatusCreated {
		err = fmt.Errorf("upload %s/%s: %s", o.name, name, rep.describe())
	}
	// A failed upload may still have been stored, so a delete gets it
	// either way and uploads and deletes stay balanced.
	o.pushUpload(liveUpload{name: name, unsure: err != nil})
	if err != nil {
		return err
	}
	s.rows = o.in.body.m.Rows()
	return nil
}

func (d *deployment) deleteOp(ctx context.Context, buf *bytes.Buffer, s *sample, o *owner, traceID string) error {
	u, ok := o.popUpload()
	if !ok {
		return fmt.Errorf("delete %s: no upload left to delete", o.name)
	}
	rep, err := d.exchange(ctx, buf, s, http.MethodDelete,
		o.entry+"/v1/datasets/"+u.name+"?owner="+o.name, "", nil, o.token, traceID)
	if err == nil && rep.status == http.StatusNotFound && u.unsure {
		return nil
	}
	if err == nil && rep.status != http.StatusOK {
		err = fmt.Errorf("delete %s/%s: %s", o.name, u.name, rep.describe())
	}
	if err != nil {
		o.returnUpload(u.name)
	}
	return err
}

func (d *deployment) read(ctx context.Context, buf *bytes.Buffer, s *sample, o *owner, traceID string) ([]byte, error) {
	rep, err := d.exchange(ctx, buf, s, http.MethodGet,
		o.entry+"/v1/datasets/r"+strconv.Itoa(s.dataset)+"/rows?owner="+o.name+"&format="+d.wl.wire,
		"", nil, o.token, traceID)
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("read %s/r%d: %s", o.name, s.dataset, rep.describe())
	}
	s.rows = o.in.reads[s.dataset].m.Rows()
	return rep.body, nil
}

// cluster submits a k-means job, polls its status every jobPoll and
// fetches the result. Only the submission carries the pinned trace ID.
func (d *deployment) cluster(ctx context.Context, buf *bytes.Buffer, s *sample, o *owner, traceID string) ([]byte, error) {
	spec, err := json.Marshal(map[string]any{"type": "cluster", "dataset": "r" + strconv.Itoa(s.dataset), "k": clusterK})
	if err != nil {
		return nil, err
	}
	jobs := o.entry + "/v1/jobs"
	rep, err := d.exchange(ctx, buf, s, http.MethodPost, jobs+"?owner="+o.name, "application/json", spec, o.token, traceID)
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusAccepted {
		return nil, fmt.Errorf("cluster submit %s: %s", o.name, rep.describe())
	}
	var st jobStatus
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return nil, fmt.Errorf("cluster submit %s: %w", o.name, err)
	}
	id := st.ID
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			return nil, fmt.Errorf("cluster job %s ended %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(jobPoll):
		}
		rep, err := d.exchange(ctx, buf, s, http.MethodGet, jobs+"/"+id+"?owner="+o.name, "", nil, o.token, "")
		if err != nil {
			return nil, err
		}
		if rep.status != http.StatusOK {
			return nil, fmt.Errorf("cluster poll %s: %s", id, rep.describe())
		}
		st = jobStatus{}
		if err := json.Unmarshal(rep.body, &st); err != nil {
			return nil, fmt.Errorf("cluster poll %s: %w", id, err)
		}
	}
	s.job = &st
	rep, err = d.exchange(ctx, buf, s, http.MethodGet, jobs+"/"+id+"/result?owner="+o.name, "", nil, o.token, "")
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("cluster result %s: %s", id, rep.describe())
	}
	return rep.body, nil
}

// exchange is call plus the sample's byte and request accounting.
func (d *deployment) exchange(ctx context.Context, buf *bytes.Buffer, s *sample, method, url, contentType string, body []byte, token, traceID string) (reply, error) {
	s.requests++
	s.out += int64(len(body))
	rep, err := d.call(ctx, buf, method, url, contentType, body, token, traceID)
	s.in += int64(len(rep.body))
	return rep, err
}
