package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// waitState polls until owner's job reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, owner, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(owner, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := m.Get(owner, id)
	t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
	return Status{}
}

func TestSubmitRunResult(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	m.Register("double", func(ctx context.Context, task *Task) (any, error) {
		var n int
		if err := json.Unmarshal(task.Spec, &n); err != nil {
			return nil, err
		}
		task.SetProgress(0.5)
		return n * 2, nil
	})

	st, err := m.Submit("alice", "double", json.RawMessage("21"))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Owner != "alice" || st.ID == "" {
		t.Fatalf("submit status = %+v", st)
	}
	final := waitState(t, m, "alice", st.ID, StateDone)
	if final.Progress != 1 || final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("final = %+v", final)
	}
	res, _, err := m.Result("alice", st.ID)
	if err != nil || res.(int) != 42 {
		t.Fatalf("result = %v, %v", res, err)
	}
	stats := m.Stats()
	if stats.Submitted != 1 || stats.Completed != 1 || stats.QueueDepth != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestUnknownTypeAndFailure(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	if _, err := m.Submit("alice", "nope", nil); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unknown type: %v", err)
	}
	m.Register("boom", func(ctx context.Context, task *Task) (any, error) {
		return nil, fmt.Errorf("kaput")
	})
	m.Register("panic", func(ctx context.Context, task *Task) (any, error) {
		panic("sky falling")
	})
	st, _ := m.Submit("alice", "boom", nil)
	if got := waitState(t, m, "alice", st.ID, StateFailed); got.Error != "kaput" {
		t.Fatalf("error = %q", got.Error)
	}
	if _, _, err := m.Result("alice", st.ID); err != nil {
		t.Fatalf("result of failed job should report via status, got %v", err)
	}
	// A panicking runner fails the job without killing the worker.
	st2, _ := m.Submit("alice", "panic", nil)
	waitState(t, m, "alice", st2.ID, StateFailed)
	st3, _ := m.Submit("alice", "boom", nil)
	waitState(t, m, "alice", st3.ID, StateFailed)
}

func TestOwnerIsolation(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	m.Register("noop", func(ctx context.Context, task *Task) (any, error) { return "ok", nil })
	st, _ := m.Submit("alice", "noop", nil)
	waitState(t, m, "alice", st.ID, StateDone)
	if _, err := m.Get("bob", st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("foreign get: %v", err)
	}
	if _, _, err := m.Result("bob", st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("foreign result: %v", err)
	}
	if _, err := m.Cancel("bob", st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("foreign cancel: %v", err)
	}
}

// TestPerOwnerFairness: with one worker, owner B's single job must run
// after at most one of owner A's flood, not after all of them. A job of
// owner Z holds the worker while the flood and B's job queue, so the
// first pop sees both owners whatever the goroutine schedule.
func TestPerOwnerFairness(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	gate := make(chan struct{})
	var order []string
	done := make(chan string, 16)
	m.Register("step", func(ctx context.Context, task *Task) (any, error) {
		<-gate
		done <- task.Owner
		return nil, nil
	})
	z, err := m.Submit("z", "step", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "z", z.ID, StateRunning)
	// Flood A first, then a single B job.
	for i := 0; i < 4; i++ {
		if _, err := m.Submit("a", "step", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit("b", "step", nil); err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	if got := <-done; got != "z" {
		t.Fatalf("first job run was %s's, want z's", got)
	}
	for i := 0; i < 5; i++ {
		gate <- struct{}{}
		order = append(order, <-done)
	}
	// A queued first, so its job runs first; b must run second, not fifth.
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("run order = %v, want b interleaved at position 2", order)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	started := make(chan struct{}, 1)
	m.Register("wait", func(ctx context.Context, task *Task) (any, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	running, _ := m.Submit("alice", "wait", nil)
	<-started
	queued, _ := m.Submit("alice", "wait", nil)

	// Queued: cancelled immediately, never runs.
	if st, err := m.Cancel("alice", queued.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued = %+v, %v", st, err)
	}
	// Running: context cancelled, finishes as cancelled.
	if _, err := m.Cancel("alice", running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "alice", running.ID, StateCancelled)
	// Terminal: cancel refuses.
	if _, err := m.Cancel("alice", running.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel terminal: %v", err)
	}
	if s := m.Stats(); s.Cancelled != 2 {
		t.Fatalf("cancelled = %d, want 2", s.Cancelled)
	}
}

// TestCancelDoesNotMaskRealFailure: a runner that dies on a genuine error
// right after a cancel request must report failed with that error, not a
// clean cancellation.
func TestCancelDoesNotMaskRealFailure(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	started := make(chan struct{}, 1)
	m.Register("doomed", func(ctx context.Context, task *Task) (any, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, fmt.Errorf("disk full")
	})
	st, _ := m.Submit("alice", "doomed", nil)
	<-started
	if _, err := m.Cancel("alice", st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, "alice", st.ID, StateFailed)
	if final.Error != "disk full" {
		t.Fatalf("error = %q, want the real failure", final.Error)
	}
}

func TestConcurrentOwnersProgressSimultaneously(t *testing.T) {
	m := New(Config{Workers: 2})
	defer m.Close()
	release := make(chan struct{})
	var runningNow atomic.Int32
	m.Register("hold", func(ctx context.Context, task *Task) (any, error) {
		runningNow.Add(1)
		task.SetProgress(0.3)
		select {
		case <-release:
		case <-ctx.Done():
		}
		runningNow.Add(-1)
		return nil, nil
	})
	a, _ := m.Submit("alice", "hold", nil)
	b, _ := m.Submit("bob", "hold", nil)
	c, _ := m.Submit("carol", "hold", nil)

	waitState(t, m, "alice", a.ID, StateRunning)
	waitState(t, m, "bob", b.ID, StateRunning)
	if got := runningNow.Load(); got != 2 {
		t.Fatalf("running = %d, want 2", got)
	}
	// Both in-flight jobs report progress; the third is still queued.
	if st, _ := m.Get("alice", a.ID); st.Progress <= 0 {
		t.Fatalf("alice progress = %v", st.Progress)
	}
	if st, _ := m.Get("carol", c.ID); st.State != StateQueued {
		t.Fatalf("carol state = %s, want queued (pool exhausted)", st.State)
	}
	if s := m.Stats(); s.RunningNow != 2 || s.QueueDepth != 1 {
		t.Fatalf("stats = %+v", s)
	}
	close(release)
	waitState(t, m, "carol", c.ID, StateDone)
}

func TestResultBeforeFinishAndRetention(t *testing.T) {
	m := New(Config{Workers: 1, Retention: 2})
	defer m.Close()
	m.Register("noop", func(ctx context.Context, task *Task) (any, error) { return task.ID, nil })
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := m.Submit("alice", "noop", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		waitState(t, m, "alice", st.ID, StateDone)
	}
	// Only the newest two survive retention.
	if got := len(m.List("alice")); got != 2 {
		t.Fatalf("retained = %d, want 2", got)
	}
	if _, err := m.Get("alice", ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted job still visible: %v", err)
	}
	if _, err := m.Get("alice", ids[4]); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}

	blocked := make(chan struct{})
	m.Register("hold", func(ctx context.Context, task *Task) (any, error) {
		<-blocked
		return nil, nil
	})
	st, _ := m.Submit("alice", "hold", nil)
	if _, _, err := m.Result("alice", st.ID); !errors.Is(err, ErrNotTerminal) {
		t.Fatalf("result of live job: %v", err)
	}
	close(blocked)
	waitState(t, m, "alice", st.ID, StateDone)
}

// TestDrainAndResubmit: drain cancels running work, returns the queued
// tail, and a fresh manager resumes it — the daemon restart path.
func TestDrainAndResubmit(t *testing.T) {
	m := New(Config{Workers: 1})
	started := make(chan struct{}, 1)
	m.Register("wait", func(ctx context.Context, task *Task) (any, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	running, _ := m.Submit("alice", "wait", json.RawMessage(`"r"`))
	<-started
	q1, _ := m.Submit("alice", "wait", json.RawMessage(`"q1"`))
	q2, _ := m.Submit("bob", "wait", json.RawMessage(`"q2"`))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	queued, err := m.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(queued) != 2 {
		t.Fatalf("drained %d queued jobs, want 2", len(queued))
	}
	seen := map[string]bool{}
	for _, q := range queued {
		seen[q.ID] = true
	}
	if !seen[q1.ID] || !seen[q2.ID] {
		t.Fatalf("queued snapshot = %+v", queued)
	}
	if st, _ := m.Get("alice", running.ID); st.State != StateCancelled {
		t.Fatalf("running job after drain = %s", st.State)
	}
	if _, err := m.Submit("alice", "wait", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v", err)
	}

	// Restart: resubmit the snapshot into a new manager, same IDs.
	m2 := New(Config{Workers: 2})
	defer m2.Close()
	m2.Register("wait", func(ctx context.Context, task *Task) (any, error) {
		return string(task.Spec), nil
	})
	for _, q := range queued {
		if _, err := m2.Resubmit(q); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, m2, "alice", q1.ID, StateDone)
	res, _, err := m2.Result("bob", q2.ID)
	if err != nil || res.(string) != `"q2"` {
		t.Fatalf("resubmitted result = %v, %v", res, err)
	}
}
