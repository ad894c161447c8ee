package wq

import (
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// crashRestore crashes the master, advances the clock by downtime,
// restores, and reattaches every worker the crash detached.
func crashRestore(t *testing.T, eng *simclock.Engine, m *Master, downtime, window time.Duration) {
	t.Helper()
	snap, workers := m.Crash()
	eng.RunUntil(eng.Now().Add(downtime))
	m.Restore(snap, window)
	for _, w := range workers {
		if err := m.AttachWorker(w); err != nil {
			t.Fatalf("AttachWorker(%s): %v", w.ID, err)
		}
	}
}

func TestCrashRestoreRescuesRunningTask(t *testing.T) {
	eng, m := newMaster(t)
	var done []Result
	m.OnComplete(func(r Result) { done = append(done, r) })
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	id := m.Submit(knownTask("align", 1, 10*time.Minute))

	eng.RunUntil(t0.Add(2 * time.Minute))
	if tk, _ := m.Task(id); tk.State != TaskRunning {
		t.Fatalf("state before crash = %v", tk.State)
	}
	crashRestore(t, eng, m, 30*time.Second, 2*time.Minute)

	if tk, _ := m.Task(id); tk.State != TaskRunning || tk.WorkerID != "w1" {
		tk, _ := m.Task(id)
		t.Fatalf("after reattach: state=%v worker=%q, want running on w1", tk.State, tk.WorkerID)
	}
	eng.Run()
	if len(done) != 1 {
		t.Fatalf("completions = %d, want 1", len(done))
	}
	tk := done[0].Task
	// The rescued attempt is the same attempt continuing, not a retry:
	// no second dispatch, and the worker executed right through the
	// master's downtime, so the makespan matches the no-crash run.
	if tk.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (rescue must not redispatch)", tk.Attempts)
	}
	if want := t0.Add(10 * time.Minute); !tk.FinishedAt.Equal(want) {
		t.Errorf("FinishedAt = %v, want %v", tk.FinishedAt, want)
	}
	rec := m.RecoveryStats()
	if rec.RescuedTasks != 1 || rec.FencedAttempts != 0 || rec.RequeuedUnrescued != 0 {
		t.Errorf("recovery counters = %+v", rec)
	}
	if m.Epoch() != 1 {
		t.Errorf("Epoch = %d, want 1", m.Epoch())
	}
	if fs := m.FailureStats(); fs.Requeues != 0 || fs.Quarantined != 0 {
		t.Errorf("failure stats = %+v, want no requeues/quarantines", fs)
	}
}

func TestRescueWindowExpiryRetriesWithBackoffNotQuarantine(t *testing.T) {
	eng, m := newMaster(t)
	// A budget of one attempt: a charged failure would quarantine the
	// task immediately. Losing the worker during the master's downtime
	// must not be charged.
	m.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, BackoffBase: 30 * time.Second})
	var done []Result
	m.OnComplete(func(r Result) { done = append(done, r) })
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	id := m.Submit(knownTask("align", 1, 10*time.Minute))
	eng.RunUntil(t0.Add(time.Minute))

	snap, _ := m.Crash() // w1's reattach record is dropped: the worker dies with the master down
	eng.RunUntil(eng.Now().Add(15 * time.Second))
	m.Restore(snap, 30*time.Second)

	// Within the rescue window the task is still owed to its worker.
	eng.RunUntil(eng.Now().Add(20 * time.Second))
	if tk, _ := m.Task(id); tk.State != TaskRunning {
		t.Fatalf("state inside rescue window = %v, want running", tk.State)
	}
	// Window expires 10s later: retried with backoff, not quarantined.
	// Check before the 30s backoff elapses.
	eng.RunUntil(eng.Now().Add(20 * time.Second))
	tk, _ := m.Task(id)
	if tk.State != TaskWaiting {
		t.Fatalf("state after rescue window = %v, want waiting", tk.State)
	}
	if m.WaitingRetries() != 1 {
		t.Fatalf("WaitingRetries = %d, want 1 (backoff applies)", m.WaitingRetries())
	}
	rec := m.RecoveryStats()
	if rec.RequeuedUnrescued != 1 || rec.RescuedTasks != 0 {
		t.Errorf("recovery counters = %+v", rec)
	}
	m.AddWorker("w2", resources.New(4, 16384, 1000))
	eng.Run()
	if len(done) != 1 || done[0].Task.ID != id {
		t.Fatalf("completions = %v, want task %d to finish on w2", done, id)
	}
	if done[0].Task.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", done[0].Task.Attempts)
	}
	if q := m.QuarantinedCount(); q != 0 {
		t.Errorf("Quarantined = %d, want 0 (downtime loss is not charged)", q)
	}
}

func TestAttachWorkerFencesSupersededAttempt(t *testing.T) {
	eng, m := newMaster(t)
	var done []Result
	m.OnComplete(func(r Result) { done = append(done, r) })
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	id := m.Submit(knownTask("align", 1, 10*time.Minute))
	eng.RunUntil(t0.Add(time.Minute))

	// Crash with a zero rescue window: the restored master gives up on
	// the in-flight attempt immediately and redispatches it elsewhere.
	snap, workers := m.Crash()
	m.Restore(snap, 0)
	m.AddWorker("w2", resources.New(4, 16384, 1000))
	eng.RunUntil(eng.Now().Add(time.Second))
	if tk, _ := m.Task(id); tk.State != TaskRunning || tk.WorkerID != "w2" {
		t.Fatalf("after expiry: state=%v worker=%q, want running on w2", tk.State, tk.WorkerID)
	}

	// w1 finally reconnects, still reporting the superseded attempt.
	if err := m.AttachWorker(workers[0]); err != nil {
		t.Fatal(err)
	}
	rec := m.RecoveryStats()
	if rec.FencedAttempts != 1 {
		t.Fatalf("FencedAttempts = %d, want 1", rec.FencedAttempts)
	}
	if s := m.Stats(); s.Running != 1 {
		t.Fatalf("Running = %d, want 1 (no double execution)", s.Running)
	}
	eng.Run()
	if len(done) != 1 || done[0].Task.WorkerID != "w2" {
		t.Fatalf("completions = %v, want exactly one on w2", done)
	}
}

func TestRestorePreservesQueueOrderAndBackoffDeadlines(t *testing.T) {
	eng, m := newMaster(t)
	m.SetRetryPolicy(RetryPolicy{BackoffBase: time.Minute})
	// Mixed priorities, no workers: everything queues.
	m.Submit(knownTask("a", 1, time.Minute))
	hi := knownTask("b", 1, time.Minute)
	hi.Priority = 5
	m.Submit(hi)
	m.Submit(knownTask("c", 1, time.Minute))
	// One task fails on a killed worker to seed a backoff deadline.
	m.AddWorker("w1", resources.New(1, 4096, 500))
	eng.RunUntil(t0.Add(10 * time.Second))
	if err := m.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(t0.Add(11 * time.Second))

	before := m.Snapshot()
	crashRestore(t, eng, m, 20*time.Second, time.Minute)
	after := m.Snapshot()

	if len(before.QueueOrder) != len(after.QueueOrder) {
		t.Fatalf("queue length changed: %v -> %v", before.QueueOrder, after.QueueOrder)
	}
	for i := range before.QueueOrder {
		if before.QueueOrder[i] != after.QueueOrder[i] {
			t.Fatalf("queue order changed: %v -> %v", before.QueueOrder, after.QueueOrder)
		}
	}
	if len(after.RetryResume) != 1 || !after.RetryResume[0].Resume.Equal(before.RetryResume[0].Resume) {
		t.Fatalf("retry deadlines: before %v, after %v", before.RetryResume, after.RetryResume)
	}
	if after.Epoch != before.Epoch+1 {
		t.Errorf("epoch = %d, want %d", after.Epoch, before.Epoch+1)
	}
}

func TestSubmitWhileDownBuffersUntilRestore(t *testing.T) {
	eng, m := newMaster(t)
	var done []Result
	m.OnComplete(func(r Result) { done = append(done, r) })
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	snap, workers := m.Crash()
	if id := m.Submit(knownTask("align", 1, time.Minute)); id != 0 {
		t.Fatalf("Submit while down returned %d, want 0", id)
	}
	if m.SubmittedCount() != 0 {
		t.Fatalf("SubmittedCount while down = %d", m.SubmittedCount())
	}
	m.Restore(snap, time.Minute)
	for _, w := range workers {
		if err := m.AttachWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if m.SubmittedCount() != 1 || len(done) != 1 {
		t.Fatalf("submitted=%d completions=%d, want 1/1", m.SubmittedCount(), len(done))
	}
}

func TestCrashRestoreAccountingInvariant(t *testing.T) {
	eng, m := newMaster(t)
	m.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BackoffBase: 5 * time.Second})
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	m.AddWorker("w2", resources.New(4, 16384, 1000))
	for i := 0; i < 24; i++ {
		m.Submit(knownTask("align", 1, 4*time.Minute))
	}
	eng.RunUntil(t0.Add(3 * time.Minute))
	crashRestore(t, eng, m, 20*time.Second, time.Minute)
	eng.RunUntil(eng.Now().Add(5 * time.Minute))
	crashRestore(t, eng, m, time.Minute, time.Minute)
	eng.Run()

	if s := m.Stats(); s.Waiting != 0 || s.Running != 0 {
		t.Fatalf("unfinished work after run: %+v", s)
	}
	sub, comp, quar := m.SubmittedCount(), m.CompletedCount(), m.QuarantinedCount()
	if sub != comp+quar {
		t.Fatalf("invariant violated: submitted %d != completed %d + quarantined %d", sub, comp, quar)
	}
	if comp != 24 {
		t.Errorf("completed = %d, want 24 (rescues should lose nothing)", comp)
	}
	if rec := m.RecoveryStats(); rec.RescuedTasks == 0 {
		t.Errorf("recovery counters = %+v, want rescues > 0", rec)
	}
}

func TestSnapshotIsSideEffectFree(t *testing.T) {
	eng, m := newMaster(t)
	var done []Result
	m.OnComplete(func(r Result) { done = append(done, r) })
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	for i := 0; i < 6; i++ {
		m.Submit(knownTask("align", 1, time.Minute))
	}
	eng.RunUntil(t0.Add(90 * time.Second))
	snap := m.Snapshot()
	eng.Run()
	if len(done) != 6 {
		t.Fatalf("completions after Snapshot = %d, want 6", len(done))
	}
	// The snapshot still describes the mid-run state it was taken at.
	var running int
	for i := range snap.Tasks {
		if snap.Tasks[i].State == TaskRunning {
			running++
		}
	}
	if running == 0 {
		t.Errorf("snapshot recorded no running tasks at t+90s")
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	for w := 0; w < 8; w++ {
		m.AddWorker(string(rune('a'+w)), resources.New(8, 32768, 2000))
	}
	for i := 0; i < 1000; i++ {
		m.Submit(knownTask("align", 1, time.Hour))
	}
	eng.RunUntil(t0.Add(time.Minute))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, workers := m.Crash()
		m.Restore(snap, time.Minute)
		for _, w := range workers {
			if err := m.AttachWorker(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestCancelDuringRescueWindow cancels a task that was running when
// the master crashed, before and after its worker reattached with a
// stale generation: the task leaves the rescue window as canceled, and
// a later reattach reporting it is fenced. With the worker reattached
// but the attempt fenced, the task runs on no connected worker, so
// Cancel must not look for its attempt there.
func TestCancelDuringRescueWindow(t *testing.T) {
	for _, reattachFirst := range []bool{false, true} {
		eng, m := newMaster(t)
		m.AddWorker("w1", resources.New(2, 8192, 1000))
		id := m.Submit(knownTask("a", 1, time.Hour))
		eng.RunFor(time.Second)
		snap, workers := m.Crash()
		m.Restore(snap, time.Minute)
		if reattachFirst {
			stale := workers[0]
			stale.Inflight = []InflightTask{{ID: id, Gen: 99, Remaining: time.Hour}}
			if err := m.AttachWorker(stale); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Cancel(id); err != nil {
			t.Fatalf("reattached first %v: Cancel = %v", reattachFirst, err)
		}
		tk, _ := m.Task(id)
		if tk.State != TaskCanceled || tk.WorkerID != "w1" || !tk.FinishedAt.Equal(eng.Now()) {
			t.Fatalf("reattached first %v: canceled task = %+v", reattachFirst, tk)
		}
		if st := m.Stats(); st.Waiting != 0 || st.Running != 0 {
			t.Fatalf("reattached first %v: stats after cancel = %+v", reattachFirst, st)
		}
		if !reattachFirst {
			fenced := m.RecoveryStats().FencedAttempts
			if err := m.AttachWorker(workers[0]); err != nil {
				t.Fatal(err)
			}
			if m.RecoveryStats().FencedAttempts != fenced+1 || m.Stats().Running != 0 {
				t.Fatalf("reattach after cancel: %+v, %+v", m.RecoveryStats(), m.Stats())
			}
		}
		eng.Run()
		if tk, _ := m.Task(id); tk.State != TaskCanceled || m.CompletedCount() != 0 {
			t.Fatalf("reattached first %v: after the window task = %+v, completed %d", reattachFirst, tk, m.CompletedCount())
		}
	}
}
