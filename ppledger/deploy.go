package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/obs"
)

// linkDelay is the one-way latency of every inter-node link in a ring.
const linkDelay = time.Millisecond

// tracedStoreBytes is the traced daemons' trace-store budget: large enough
// that no trace of a traced phase is evicted before it is fetched.
const tracedStoreBytes = 256 << 20

// owner is one data owner of a deployment: its identity, the node its
// requests enter through, its bearer token and its inputs.
type owner struct {
	name  string
	entry string
	token string
	in    *ownerInputs

	// release is the set-up fit release of in.body (stream-bin): every
	// stream protect of the same body must reproduce it byte for byte.
	release []byte

	mu         sync.Mutex
	uploads    []liveUpload // oldest first
	nextUpload int
}

// liveUpload is a dataset the load uploaded, for a later delete to remove.
type liveUpload struct {
	name string
	// unsure marks an upload whose upload or delete request failed: the
	// daemon may or may not hold it, so a delete that finds nothing
	// counts as done.
	unsure bool
}

// deployment is one set of running daemons with their owners claimed and
// their set-up data in place.
type deployment struct {
	wl      *workload
	dir     string
	daemons []*daemon
	proxies []*delayProxy
	owners  []*owner
	httpc   *http.Client
	clients int
	// next is the index of the next operation, shared by all clients.
	next atomic.Int64

	closeOnce sync.Once
}

// deploy launches the workload's daemons in a fresh directory under work
// and runs its set-up. It returns the deployment and the seconds from
// launch to ready-for-load.
func deploy(ctx context.Context, cfg *config, wl *workload, in []ownerInputs, traced bool) (*deployment, float64, error) {
	dir, err := os.MkdirTemp(cfg.work, wl.name+"-")
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{
		wl:  wl,
		dir: dir,
		httpc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.nproc,
			DisableCompression:  true,
		}},
		clients: min(wl.clients, cfg.nproc),
	}
	start := time.Now()
	if err := d.launch(ctx, cfg.daemonBin, traced); err != nil {
		d.close()
		return nil, 0, err
	}
	for i := range in {
		d.owners = append(d.owners, &owner{
			name:  fmt.Sprintf("bench-%d", i),
			entry: d.daemons[i%len(d.daemons)].base,
			in:    &in[i],
		})
	}
	if err := d.setup(ctx, cfg.seed); err != nil {
		d.close()
		return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	return d, time.Since(start).Seconds(), nil
}

// launch starts the daemons (behind delay proxies for a ring) and waits
// until every one answers /readyz.
func (d *deployment) launch(ctx context.Context, bin string, traced bool) error {
	wl := d.wl
	ports, err := freePorts(wl.nodes)
	if err != nil {
		return err
	}
	addrs := make([]string, wl.nodes)
	for i, port := range ports {
		addrs[i] = "127.0.0.1:" + strconv.Itoa(port)
	}
	var peers []string
	for i := 0; i < wl.nodes && wl.nodes > 1; i++ {
		p, err := newDelayProxy(addrs[i], linkDelay)
		if err != nil {
			return err
		}
		d.proxies = append(d.proxies, p)
		peers = append(peers, fmt.Sprintf("n%d=http://%s", i+1, p.addr()))
	}
	for i, addr := range addrs {
		nodeDir := filepath.Join(d.dir, fmt.Sprintf("n%d", i+1))
		if err := os.MkdirAll(nodeDir, 0o700); err != nil {
			return err
		}
		args := []string{"-addr", addr}
		if traced {
			args = append(args, "-trace-sample", "1", "-trace-store-bytes", strconv.Itoa(tracedStoreBytes))
		} else {
			args = append(args, "-trace-sample", "0")
		}
		if wl.fileStores {
			args = append(args, "-keyring", filepath.Join(nodeDir, "keys.json"),
				"-data-dir", filepath.Join(nodeDir, "data"))
		}
		if wl.nodes > 1 {
			args = append(args,
				"-node-id", fmt.Sprintf("n%d", i+1),
				"-advertise", "http://"+d.proxies[i].addr(),
				"-peers", strings.Join(peers, ","),
				"-replicas", "1",
				"-cluster-key", "ppledger-cluster-key",
				"-cache-bytes", strconv.FormatInt(wl.readWorkingSet()/2, 10))
		}
		dm, err := startDaemon(bin, args, "http://"+addr, filepath.Join(nodeDir, "stderr.log"))
		if err != nil {
			return err
		}
		d.daemons = append(d.daemons, dm)
	}
	for _, dm := range d.daemons {
		if err := dm.waitReady(ctx, d.httpc); err != nil {
			return err
		}
	}
	return nil
}

// close stops every daemon and proxy, waits for them, and removes the
// deployment's directory. Later calls do nothing.
func (d *deployment) close() { d.closeOnce.Do(d.shutdown) }

func (d *deployment) shutdown() {
	var wg sync.WaitGroup
	for _, dm := range d.daemons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dm.stop()
		}()
	}
	wg.Wait()
	for _, p := range d.proxies {
		p.close()
	}
	d.httpc.CloseIdleConnections()
	_ = os.RemoveAll(d.dir)
}

// setup claims every owner and puts the state its operations need in
// place: a fitted key for every owner, and for the ring the read datasets
// plus a few uploads for deletes to consume.
func (d *deployment) setup(ctx context.Context, seed int64) error {
	wl := d.wl
	var buf bytes.Buffer
	for i, o := range d.owners {
		if wl.readSets > 0 {
			for k, t := range o.in.reads {
				if err := d.upload(ctx, &buf, o, fmt.Sprintf("r%d", k), t.raw); err != nil {
					return err
				}
			}
			for range 3 {
				name := o.newUploadName()
				if err := d.upload(ctx, &buf, o, name, o.in.body.raw); err != nil {
					return err
				}
				o.pushUpload(liveUpload{name: name})
			}
		}
		// A pinned seed makes the set-up release reproducible, which is
		// what stream-bin's byte-identity check compares against.
		keySeed := seed*64 + int64(i) + 1
		if keySeed == 0 {
			keySeed = 1
		}
		rep, err := d.call(ctx, &buf, http.MethodPost,
			o.entry+"/v1/protect?owner="+o.name+"&format="+wl.wire+"&seed="+strconv.FormatInt(keySeed, 10),
			wl.contentType(), o.in.body.raw, o.token, "")
		if err != nil {
			return err
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("fitting %s: %s", o.name, rep.describe())
		}
		if tok := rep.header.Get("X-Ppclust-Token"); tok != "" {
			o.token = tok
		}
		if o.token == "" {
			return fmt.Errorf("fitting %s: no bearer token was minted", o.name)
		}
		o.release = bytes.Clone(rep.body)
	}
	if wl.nodes > 1 {
		return d.awaitReplication(ctx)
	}
	return nil
}

// upload stores body as dataset name for o during set-up, claiming the
// owner on its first upload.
func (d *deployment) upload(ctx context.Context, buf *bytes.Buffer, o *owner, name string, body []byte) error {
	rep, err := d.call(ctx, buf, http.MethodPost,
		o.entry+"/v1/datasets?owner="+o.name+"&name="+name+"&format="+d.wl.wire,
		d.wl.contentType(), body, o.token, "")
	if err != nil {
		return err
	}
	if rep.status != http.StatusCreated {
		return fmt.Errorf("uploading %s/%s: %s", o.name, name, rep.describe())
	}
	if tok := rep.header.Get("X-Ppclust-Token"); tok != "" {
		o.token = tok
	}
	return nil
}

func (o *owner) newUploadName() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nextUpload++
	return "u" + strconv.Itoa(o.nextUpload)
}

func (o *owner) pushUpload(u liveUpload) {
	o.mu.Lock()
	o.uploads = append(o.uploads, u)
	o.mu.Unlock()
}

// popUpload removes and returns the owner's oldest upload.
func (o *owner) popUpload() (liveUpload, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.uploads) == 0 {
		return liveUpload{}, false
	}
	u := o.uploads[0]
	o.uploads = o.uploads[1:]
	return u, true
}

// returnUpload puts back, first in line, an upload whose delete failed.
func (o *owner) returnUpload(name string) {
	o.mu.Lock()
	o.uploads = append([]liveUpload{{name: name, unsure: true}}, o.uploads...)
	o.mu.Unlock()
}

// awaitReplication waits until no node has replication events queued, so
// a phase starts (and its counters end) with the ring settled.
func (d *deployment) awaitReplication(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		pending := int64(0)
		for _, dm := range d.daemons {
			snap, err := dm.metrics(ctx, d.httpc)
			if err != nil {
				return err
			}
			pending += snap["ring_replication_pending"]
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring replication still has %d events queued after 30s", pending)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// metrics fetches every daemon's metrics snapshot.
func (d *deployment) metrics(ctx context.Context) ([]map[string]int64, error) {
	var out []map[string]int64
	for _, dm := range d.daemons {
		snap, err := dm.metrics(ctx, d.httpc)
		if err != nil {
			return nil, err
		}
		out = append(out, snap)
	}
	return out, nil
}

// memoryMB sums a /proc status field over the daemons, in MB.
func (d *deployment) memoryMB(field string) (float64, error) {
	var kib int64
	for _, dm := range d.daemons {
		v, err := dm.statusKiB(field)
		if err != nil {
			return 0, err
		}
		kib += v
	}
	return float64(kib) * 1024 / 1e6, nil
}

// watchRSS samples the daemons' summed resident set every interval until
// the returned function is called, which returns the samples' median.
func (d *deployment) watchRSS(every time.Duration) func() float64 {
	done := make(chan struct{})
	result := make(chan float64, 1)
	go func() {
		var vals []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- median(vals)
				return
			case <-tick.C:
				if mb, err := d.memoryMB("VmRSS"); err == nil {
					vals = append(vals, mb)
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-result
	}
}

// reply is one HTTP exchange's outcome. body aliases the caller's buffer.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func (r reply) describe() string {
	msg := strings.TrimSpace(string(r.body))
	if len(msg) > 300 {
		msg = msg[:300]
	}
	return fmt.Sprintf("status %d: %s", r.status, msg)
}

// call performs one request and reads the whole response into buf.
func (d *deployment) call(ctx context.Context, buf *bytes.Buffer, method, url, contentType string, body []byte, token, traceID string) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := d.httpc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{}, fmt.Errorf("%s %s: reading response: %w", method, url, err)
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: buf.Bytes()}, nil
}

// jobStatus is the subset of a job's status the benchmark reads.
type jobStatus struct {
	ID       string      `json:"id"`
	State    string      `json:"state"`
	Error    string      `json:"error"`
	Timeline []obs.Stage `json:"timeline"`
}
