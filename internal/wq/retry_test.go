package wq

import (
	"testing"
	"time"

	"hta/internal/resources"
)

// meanEstimator serves a constant exec-time mean for every category.
type meanEstimator struct{ mean time.Duration }

func (e meanEstimator) EstimateResources(string) (resources.Vector, bool) {
	return resources.Zero, false
}
func (e meanEstimator) EstimateExecTime(string) (time.Duration, bool) {
	return e.mean, e.mean > 0
}

func TestKillWorkerBackoffDelaysRequeue(t *testing.T) {
	eng, m := newMaster(t)
	m.SetRetryPolicy(RetryPolicy{BackoffBase: 30 * time.Second, BackoffMax: 2 * time.Minute})
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	id := m.Submit(knownTask("align", 1, time.Hour))
	eng.RunUntil(t0.Add(time.Minute))

	if err := m.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if got := len(m.retryPending); got != 1 {
		t.Fatalf("retries waiting = %d, want 1", got)
	}
	if s := m.Stats(); s.Waiting != 1 {
		t.Fatalf("Stats.Waiting = %d, want 1 (backoff task counted)", s.Waiting)
	}
	// The task must not re-enter the queue before the backoff elapses.
	eng.RunUntil(t0.Add(time.Minute + 29*time.Second))
	if tk, _ := m.Task(id); tk.State != TaskWaiting {
		t.Fatalf("state before backoff = %v", tk.State)
	}
	if m.waiting.Len() != 0 {
		t.Fatalf("task requeued before backoff elapsed")
	}
	m.AddWorker("w2", resources.New(4, 16384, 1000))
	eng.RunUntil(t0.Add(2 * time.Minute))
	if tk, _ := m.Task(id); tk.State != TaskRunning || tk.WorkerID != "w2" {
		t.Fatalf("after backoff: state=%v worker=%q", tk.State, tk.WorkerID)
	}
	if tk, _ := m.Task(id); tk.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", tk.Attempts)
	}
}

func TestRetryBudgetQuarantine(t *testing.T) {
	eng, m := newMaster(t)
	m.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	var failed []Task
	m.OnTaskFailed(func(tk Task) { failed = append(failed, tk) })

	id := m.Submit(knownTask("align", 1, time.Hour))
	for i := 0; i < 3; i++ {
		m.AddWorker("w", resources.New(4, 16384, 1000))
		eng.RunUntil(eng.Now().Add(time.Minute))
		if tk, _ := m.Task(id); tk.State != TaskRunning {
			t.Fatalf("attempt %d: state = %v", i+1, tk.State)
		}
		if err := m.KillWorker("w"); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now().Add(time.Second))
	}
	tk, _ := m.Task(id)
	if tk.State != TaskQuarantined {
		t.Fatalf("state after 3 failed attempts = %v, want quarantined", tk.State)
	}
	if len(failed) != 1 || failed[0].ID != id {
		t.Fatalf("OnTaskFailed fired %d times (%v), want once for task %d", len(failed), failed, id)
	}
	fs := m.FailureStats()
	if fs.Quarantined != 1 || fs.WorkerKills != 3 || fs.Requeues != 3 {
		t.Fatalf("FailureStats = %+v", fs)
	}
	if fs.LostCoreSeconds <= 0 {
		t.Fatalf("LostCoreSeconds = %v, want > 0", fs.LostCoreSeconds)
	}
	// A quarantined task never re-enters the queue.
	m.AddWorker("w-late", resources.New(4, 16384, 1000))
	eng.Run()
	if tk, _ := m.Task(id); tk.State != TaskQuarantined {
		t.Fatalf("quarantined task was resubmitted: %v", tk.State)
	}
	if s := m.Stats(); s.Quarantined != 1 || s.Waiting != 0 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestFastAbortKillsStraggler(t *testing.T) {
	eng, m := newMaster(t)
	done := results(m)
	m.SetEstimator(meanEstimator{mean: 10 * time.Second})
	m.SetRetryPolicy(RetryPolicy{FastAbortMultiplier: 3})
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	m.AddWorker("w2", resources.New(4, 16384, 1000))

	fast := m.Submit(knownTask("align", 1, 10*time.Second))
	straggler := m.Submit(knownTask("align", 1, 5*time.Minute))
	eng.RunUntil(t0.Add(29 * time.Second))
	if tk, _ := m.Task(straggler); tk.State != TaskRunning || tk.Attempts != 1 {
		t.Fatalf("straggler before deadline: %+v", tk)
	}
	// Deadline = 3 × 10 s from dispatch; the straggler is aborted and
	// resubmitted, landing back on a worker as a second attempt.
	eng.RunUntil(t0.Add(40 * time.Second))
	tk, _ := m.Task(straggler)
	if tk.Attempts != 2 {
		t.Fatalf("straggler Attempts = %d, want 2 (fast-abort resubmit)", tk.Attempts)
	}
	fs := m.FailureStats()
	if fs.FastAborts != 1 {
		t.Fatalf("FastAborts = %d, want 1", fs.FastAborts)
	}
	if tk := done[fast]; tk.State != TaskComplete || tk.Attempts != 1 {
		t.Fatalf("fast task state = %v attempts = %d", tk.State, tk.Attempts)
	}
	if fs.UsefulCoreSeconds <= 0 || fs.LostCoreSeconds <= 0 {
		t.Fatalf("core-second accounting: %+v", fs)
	}
	if g := fs.Goodput(); g <= 0 || g >= 1 {
		t.Fatalf("Goodput = %v, want in (0,1)", g)
	}
}

func TestCancelDuringBackoff(t *testing.T) {
	eng, m := newMaster(t)
	m.SetRetryPolicy(RetryPolicy{BackoffBase: time.Minute})
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	id := m.Submit(knownTask("align", 1, time.Hour))
	eng.RunUntil(t0.Add(time.Second))
	if err := m.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if len(m.retryPending) != 0 {
		t.Fatalf("retry timer survived cancel")
	}
	m.AddWorker("w2", resources.New(4, 16384, 1000))
	eng.Run()
	if tk, _ := m.Task(id); tk.State != TaskCanceled {
		t.Fatalf("state = %v, want canceled", tk.State)
	}
}

func TestBackoffDoubling(t *testing.T) {
	p := RetryPolicy{BackoffBase: 10 * time.Second, BackoffMax: time.Minute}
	want := []time.Duration{10 * time.Second, 20 * time.Second, 40 * time.Second, time.Minute, time.Minute}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (RetryPolicy{}).backoff(3); got != 0 {
		t.Errorf("zero policy backoff = %v, want 0", got)
	}
}
