// Package jobs runs the daemon's heavy analytics asynchronously: a
// submission immediately returns a job ID, a bounded worker pool executes
// registered runners in the background, and clients poll status, progress
// and results over the API.
//
// Scheduling is fair per owner: queued jobs live in one FIFO per owner and
// workers pop owners round-robin, so a tenant that floods the queue with a
// hundred jobs cannot starve another tenant's single job — the second
// owner's job is at worst one rotation away. Running jobs carry a
// context; cancellation (client DELETE or daemon drain) cancels the
// context and the runner is expected to notice between units of work.
//
// The manager retains finished jobs (capped per owner, oldest evicted) so
// results survive until fetched, and supports a graceful drain: stop
// accepting, cancel running work, and hand back the still-queued jobs so
// the daemon can persist and resubmit them after a restart.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ppclust/internal/obs"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. Queued and Running are live; the other three are
// terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Errors returned by the manager.
var (
	// ErrNotFound reports an unknown job ID (or one owned by someone
	// else — foreign jobs are indistinguishable from absent ones).
	ErrNotFound = errors.New("jobs: not found")
	// ErrUnknownType reports a submission for an unregistered job type.
	ErrUnknownType = errors.New("jobs: unknown job type")
	// ErrDraining reports a submission to a draining manager.
	ErrDraining = errors.New("jobs: manager is draining")
	// ErrNotTerminal reports a result fetch for a job still in flight.
	ErrNotTerminal = errors.New("jobs: job has not finished")
	// ErrTerminal reports a cancel of an already-finished job.
	ErrTerminal = errors.New("jobs: job already finished")
)

// Status is the client-visible snapshot of one job.
type Status struct {
	ID       string  `json:"id"`
	Owner    string  `json:"owner"`
	Type     string  `json:"type"`
	State    State   `json:"state"`
	Progress float64 `json:"progress"`
	// Error carries the failure message for StateFailed.
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// TraceID ties the job to the request trace that submitted it (or to
	// the trace minted when the worker picked it up); quoting it finds
	// the daemon's span-tree and request logs for this job.
	TraceID string `json:"trace_id,omitempty"`
	// Timeline is the persistent per-stage record of a finished job:
	// queue wait, total run time, then every span the runner recorded
	// (store I/O, engine fit/protect, keyring writes), flattened in
	// execution order.
	Timeline []obs.Stage `json:"timeline,omitempty"`
}

// ResultView is the body of a finished job's result fetch (GET
// /v1/jobs/{id}/result, and a federation's joint result): the final
// status and what the runner returned. The daemon serves it with T any;
// a client decodes T as the runner's result type.
type ResultView[T any] struct {
	Status Status `json:"status"`
	Result T      `json:"result"`
}

// QueuedJob is the restartable description of a not-yet-started job — what
// a draining daemon persists and a restarting daemon resubmits.
type QueuedJob struct {
	ID        string          `json:"id"`
	Owner     string          `json:"owner"`
	Type      string          `json:"type"`
	Spec      json.RawMessage `json:"spec"`
	CreatedAt time.Time       `json:"created_at"`
	TraceID   string          `json:"trace_id,omitempty"`
}

// Task is the runner's view of its job: the spec to execute and a progress
// sink. Runners must treat ctx cancellation as a stop request.
type Task struct {
	ID    string
	Owner string
	Type  string
	Spec  json.RawMessage

	job *job
}

// SetProgress records completion in [0, 1] for status polls. Values are
// clamped; progress never moves backwards.
func (t *Task) SetProgress(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	t.job.m.mu.Lock()
	if p > t.job.progress {
		t.job.progress = p
	}
	t.job.m.mu.Unlock()
}

// Runner executes one job type. The returned value becomes the job's
// result on success; it must be JSON-serializable for the HTTP layer.
type Runner func(ctx context.Context, t *Task) (any, error)

// Stats is a point-in-time view of the manager, shaped for /v1/metrics.
type Stats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	RunningNow int   `json:"running_now"`
	Submitted  int64 `json:"submitted_total"`
	Completed  int64 `json:"completed_total"`
	Failed     int64 `json:"failed_total"`
	Cancelled  int64 `json:"cancelled_total"`
}

// job is the manager-internal record.
type job struct {
	m          *Manager
	id         string
	owner      string
	jobType    string
	spec       json.RawMessage
	state      State
	progress   float64
	err        string
	result     any
	createdAt  time.Time
	startedAt  time.Time
	finishedAt time.Time
	cancel     context.CancelFunc
	seq        uint64
	traceID    string
	timeline   []obs.Stage
}

func (j *job) status() Status {
	s := Status{
		ID:        j.id,
		Owner:     j.owner,
		Type:      j.jobType,
		State:     j.state,
		Progress:  j.progress,
		Error:     j.err,
		CreatedAt: j.createdAt,
		TraceID:   j.traceID,
		Timeline:  j.timeline,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		s.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		s.FinishedAt = &t
	}
	return s
}

// Config sizes a Manager.
type Config struct {
	// Workers is the pool size; <= 0 means 2. More than one worker lets
	// long jobs from different owners make progress simultaneously.
	Workers int
	// Retention caps finished jobs kept per owner (oldest evicted);
	// <= 0 means 256.
	Retention int
	// Now overrides the clock, for tests.
	Now func() time.Time
}

// Manager owns the queue, the worker pool and the job table.
type Manager struct {
	mu                                      sync.Mutex
	cond                                    *sync.Cond
	workers                                 int
	retention                               int
	now                                     func() time.Time
	runners                                 map[string]Runner
	jobs                                    map[string]*job
	queues                                  map[string][]*job // per-owner FIFO of queued jobs
	order                                   []string          // owners with queued work, rotated round-robin
	finished                                map[string][]*job // per-owner finished jobs in completion order
	queued                                  int
	running                                 int
	draining                                bool
	closed                                  bool
	seq                                     uint64
	submitted, completed, failed, cancelled int64
	wg                                      sync.WaitGroup
}

// New starts a manager and its worker pool.
func New(cfg Config) *Manager {
	m := &Manager{
		workers:   cfg.Workers,
		retention: cfg.Retention,
		now:       cfg.Now,
		runners:   map[string]Runner{},
		jobs:      map[string]*job{},
		queues:    map[string][]*job{},
		finished:  map[string][]*job{},
	}
	if m.workers <= 0 {
		m.workers = 2
	}
	if m.retention <= 0 {
		m.retention = 256
	}
	if m.now == nil {
		m.now = func() time.Time { return time.Now().UTC() }
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(m.workers)
	for i := 0; i < m.workers; i++ {
		go m.worker()
	}
	return m
}

// Register installs the runner for a job type. Registration happens at
// daemon startup, before submissions.
func (m *Manager) Register(jobType string, r Runner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runners[jobType] = r
}

// Workers returns the pool size.
func (m *Manager) Workers() int { return m.workers }

// Submit queues a job for owner and returns its initial status.
func (m *Manager) Submit(owner, jobType string, spec json.RawMessage) (Status, error) {
	return m.SubmitTraced(owner, jobType, spec, "")
}

// SubmitTraced is Submit carrying the trace ID of the request that made
// the submission, so the job's logs and timeline join the same trace.
// An empty traceID defers minting to the worker.
func (m *Manager) SubmitTraced(owner, jobType string, spec json.RawMessage, traceID string) (Status, error) {
	id, err := newID()
	if err != nil {
		return Status{}, err
	}
	return m.enqueue(id, owner, jobType, spec, time.Time{}, traceID)
}

// Resubmit re-queues a job snapshot taken by Drain, keeping its identity
// and creation time — the restart half of graceful drain.
func (m *Manager) Resubmit(q QueuedJob) (Status, error) {
	return m.enqueue(q.ID, q.Owner, q.Type, q.Spec, q.CreatedAt, q.TraceID)
}

func (m *Manager) enqueue(id, owner, jobType string, spec json.RawMessage, createdAt time.Time, traceID string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining || m.closed {
		return Status{}, ErrDraining
	}
	if _, ok := m.runners[jobType]; !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownType, jobType)
	}
	if _, ok := m.jobs[id]; ok {
		return Status{}, fmt.Errorf("jobs: duplicate id %q", id)
	}
	if createdAt.IsZero() {
		createdAt = m.now()
	}
	m.seq++
	j := &job{
		m:         m,
		id:        id,
		owner:     owner,
		jobType:   jobType,
		spec:      spec,
		state:     StateQueued,
		createdAt: createdAt,
		seq:       m.seq,
		traceID:   traceID,
	}
	m.jobs[id] = j
	if len(m.queues[owner]) == 0 {
		m.order = append(m.order, owner)
	}
	m.queues[owner] = append(m.queues[owner], j)
	m.queued++
	m.submitted++
	m.cond.Signal()
	return j.status(), nil
}

// Get returns the status of owner's job id; foreign or unknown IDs are
// both ErrNotFound so job IDs leak nothing across tenants.
func (m *Manager) Get(owner, id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(owner, id)
	if err != nil {
		return Status{}, err
	}
	return j.status(), nil
}

// List returns owner's jobs, newest submission first. It scans the whole
// job table — an accepted cost for an administrative listing call; the
// hot transitions (submit, complete, cancel) all use per-owner indexes.
func (m *Manager) List(owner string) []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	var mine []*job
	for _, j := range m.jobs {
		if j.owner == owner {
			mine = append(mine, j)
		}
	}
	sort.Slice(mine, func(i, k int) bool { return mine[i].seq > mine[k].seq })
	out := make([]Status, len(mine))
	for i, j := range mine {
		out[i] = j.status()
	}
	return out
}

// Result returns the result value of owner's finished job. ErrNotTerminal
// while the job is queued or running; for failed and cancelled jobs the
// result is nil and the Status carries the story.
func (m *Manager) Result(owner, id string) (any, Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(owner, id)
	if err != nil {
		return nil, Status{}, err
	}
	if !j.state.Terminal() {
		return nil, j.status(), ErrNotTerminal
	}
	return j.result, j.status(), nil
}

// Cancel stops owner's job id: a queued job is cancelled immediately, a
// running job has its context cancelled and finishes as cancelled when the
// runner returns. ErrTerminal if it already finished.
func (m *Manager) Cancel(owner, id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(owner, id)
	if err != nil {
		return Status{}, err
	}
	switch j.state {
	case StateQueued:
		m.removeQueuedLocked(j)
		j.state = StateCancelled
		j.finishedAt = m.now()
		m.cancelled++
		m.finishLocked(j)
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	default:
		return j.status(), ErrTerminal
	}
	return j.status(), nil
}

// Stats implements the /v1/metrics numbers.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Workers:    m.workers,
		QueueDepth: m.queued,
		RunningNow: m.running,
		Submitted:  m.submitted,
		Completed:  m.completed,
		Failed:     m.failed,
		Cancelled:  m.cancelled,
	}
}

// Drain gracefully shuts the manager down: new submissions fail with
// ErrDraining, every running job's context is cancelled, and once the
// workers return (or ctx expires) the still-queued jobs are handed back
// for persistence. The manager is unusable afterwards.
func (m *Manager) Drain(ctx context.Context) ([]QueuedJob, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, nil
	}
	m.draining = true
	m.closed = true
	for _, j := range m.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("jobs: drain: %w", ctx.Err())
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	var out []QueuedJob
	for _, owner := range m.order {
		for _, j := range m.queues[owner] {
			out = append(out, QueuedJob{
				ID:        j.id,
				Owner:     j.owner,
				Type:      j.jobType,
				Spec:      j.spec,
				CreatedAt: j.createdAt,
				TraceID:   j.traceID,
			})
		}
	}
	return out, err
}

// Close is Drain with no interest in the queue, for tests and simple
// shutdowns.
func (m *Manager) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _ = m.Drain(ctx)
}

func (m *Manager) lookupLocked(owner, id string) (*job, error) {
	j, ok := m.jobs[id]
	if !ok || j.owner != owner {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	return j, nil
}

// removeQueuedLocked unlinks a queued job from its owner's FIFO.
func (m *Manager) removeQueuedLocked(j *job) {
	q := m.queues[j.owner]
	for i, cand := range q {
		if cand == j {
			m.queues[j.owner] = append(q[:i:i], q[i+1:]...)
			m.queued--
			break
		}
	}
	if len(m.queues[j.owner]) == 0 {
		m.dropOwnerLocked(j.owner)
	}
}

func (m *Manager) dropOwnerLocked(owner string) {
	delete(m.queues, owner)
	for i, o := range m.order {
		if o == owner {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
}

// popLocked takes the next job under per-owner round-robin: the head of
// the first owner's queue, then that owner rotates to the back.
func (m *Manager) popLocked() *job {
	if len(m.order) == 0 {
		return nil
	}
	owner := m.order[0]
	q := m.queues[owner]
	j := q[0]
	if len(q) == 1 {
		m.dropOwnerLocked(owner)
	} else {
		m.queues[owner] = q[1:]
		m.order = append(m.order[1:], owner)
	}
	m.queued--
	return j
}

func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		for !m.closed && (m.draining || m.queued == 0) {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.popLocked()
		if j == nil {
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		// The runner's context carries a trace (the submitting request's
		// ID when there was one) so service/engine spans land in one tree
		// that becomes the job's persistent timeline.
		ctx, root := obs.StartTrace(ctx, j.traceID, "job:"+j.jobType)
		j.traceID = obs.TraceID(ctx)
		j.state = StateRunning
		j.startedAt = m.now()
		j.cancel = cancel
		m.running++
		runner := m.runners[j.jobType]
		m.mu.Unlock()

		result, err := runSafely(runner, ctx, &Task{
			ID: j.id, Owner: j.owner, Type: j.jobType, Spec: j.spec, job: j,
		})
		cancel()
		root.End()

		m.mu.Lock()
		m.running--
		j.cancel = nil
		j.finishedAt = m.now()
		switch {
		case errors.Is(err, context.Canceled):
			// Only a genuine context cancellation counts as cancelled; a
			// runner that hits a real failure (disk full, bad dataset)
			// moments after a cancel request must still surface that
			// error, not report a clean cancellation.
			j.state = StateCancelled
			m.cancelled++
		case err != nil:
			j.state = StateFailed
			j.err = err.Error()
			m.failed++
		default:
			j.state = StateDone
			j.progress = 1
			j.result = result
			m.completed++
		}
		j.timeline = append([]obs.Stage{
			{Name: "queued", DurationMs: float64(j.startedAt.Sub(j.createdAt).Microseconds()) / 1000},
			{Name: "running", DurationMs: float64(j.finishedAt.Sub(j.startedAt).Microseconds()) / 1000},
		}, obs.FromContext(ctx).Stages()...)
		m.finishLocked(j)
	}
}

// runSafely converts a runner panic into a failed job instead of a dead
// worker.
func runSafely(r Runner, ctx context.Context, t *Task) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("jobs: runner panic: %v\n%s", p, debug.Stack())
		}
	}()
	return r(ctx, t)
}

// finishLocked indexes a just-terminal job and evicts the owner's oldest
// finished jobs beyond the retention cap — O(evictions), not a scan of
// the whole cross-owner job table, so completions stay cheap under the
// manager lock no matter how many tenants are near the cap.
func (m *Manager) finishLocked(j *job) {
	fin := append(m.finished[j.owner], j)
	for len(fin) > m.retention {
		delete(m.jobs, fin[0].id)
		fin = fin[1:]
	}
	m.finished[j.owner] = fin
}

// newID mints an unguessable job identifier. IDs double as capability
// hints (they are only useful with the owner's token, but an attacker
// should still not be able to enumerate them).
func newID() (string, error) {
	var raw [12]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("jobs: minting id: %w", err)
	}
	return "j" + hex.EncodeToString(raw[:]), nil
}
