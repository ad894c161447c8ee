package wq

import (
	"testing"
	"time"

	"hta/internal/resources"
)

// TestFailAllPending covers the offboarding handback hook: every
// waiting task — queued, buffered at admission, or sitting out a retry
// backoff — is settled as quarantined in one call, while running tasks
// keep executing.
func TestFailAllPending(t *testing.T) {
	eng, m := newMaster(t)
	m.SetAdmissionPolicy(AdmissionPolicy{MaxWaiting: 2, BufferDepth: 8})
	m.SetRetryPolicy(RetryPolicy{BackoffBase: 5 * time.Minute})
	var failed []Task
	m.OnTaskFailed(func(tk Task) { failed = append(failed, tk) })
	m.AddWorker("w1", resources.New(1, 2048, 1000))

	running := m.Submit(knownTask("align", 1, time.Hour))
	for i := 0; i < 4; i++ {
		m.Submit(knownTask("align", 1, time.Hour)) // 2 queued, 2 buffered
	}
	eng.RunUntil(t0.Add(time.Minute))
	if tk, _ := m.Task(running); tk.State != TaskRunning {
		t.Fatalf("task %d state = %v, want running", running, tk.State)
	}
	// Put one task into a retry backoff: kill the worker's attempt,
	// then re-add capacity so the books stay simple.
	if err := m.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(t0.Add(2 * time.Minute))

	st := m.Stats()
	if st.Waiting != 5 || st.Running != 0 {
		t.Fatalf("pre-offboard stats = %+v, want 5 waiting, 0 running", st)
	}
	if n := m.FailAllPending(); n != 5 {
		t.Fatalf("FailAllPending = %d, want 5", n)
	}
	eng.Run()
	st = m.Stats()
	if st.Waiting != 0 || st.Running != 0 || st.Quarantined != 5 {
		t.Fatalf("post-offboard stats = %+v, want 0 waiting, 5 quarantined", st)
	}
	if len(failed) != 5 {
		t.Fatalf("OnTaskFailed fired %d times, want 5", len(failed))
	}
	// Conservation: everything submitted is terminal.
	if got := m.CompletedCount() + m.QuarantinedCount() + m.ShedCount(); got != m.SubmittedCount() {
		t.Fatalf("conservation: %d terminal of %d submitted", got, m.SubmittedCount())
	}
	if len(m.retryPending) != 0 {
		t.Fatalf("retry timers still pending: %d", len(m.retryPending))
	}
	// The overload interval closed when the buffer was flushed.
	if len(m.admQueue) != 0 {
		t.Fatalf("admission buffer not empty: %d", len(m.admQueue))
	}
	if n := m.FailAllPending(); n != 0 {
		t.Fatalf("second FailAllPending = %d, want 0", n)
	}
}

// TestFailAllPendingLeavesRunning pins that the hook only settles
// never-started work: a running task completes normally afterwards.
func TestFailAllPendingLeavesRunning(t *testing.T) {
	eng, m := newMaster(t)
	var done []Result
	m.OnComplete(func(r Result) { done = append(done, r) })
	m.AddWorker("w1", resources.New(1, 2048, 1000))
	m.Submit(knownTask("align", 1, 10*time.Minute))
	m.Submit(knownTask("align", 1, 10*time.Minute)) // waits behind the first
	eng.RunUntil(t0.Add(time.Minute))

	if n := m.FailAllPending(); n != 1 {
		t.Fatalf("FailAllPending = %d, want 1", n)
	}
	eng.Run()
	if len(done) != 1 {
		t.Fatalf("completions = %d, want 1 (running task must finish)", len(done))
	}
	if got := m.CompletedCount() + m.QuarantinedCount(); got != m.SubmittedCount() {
		t.Fatalf("conservation: %d terminal of %d submitted", got, m.SubmittedCount())
	}
}

// TestRecoveryDowntimeCounter pins the master-side downtime
// accounting: each Restore adds the crash-to-restore interval to
// RecoveryStats().Downtime.
func TestRecoveryDowntimeCounter(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	m.Submit(knownTask("align", 1, 30*time.Minute))
	eng.RunUntil(t0.Add(time.Minute))

	crashRestore(t, eng, m, 45*time.Second, time.Minute)
	if got := m.RecoveryStats().Downtime; got != 45*time.Second {
		t.Fatalf("Downtime after first restore = %v, want 45s", got)
	}
	eng.RunUntil(eng.Now().Add(time.Minute))
	crashRestore(t, eng, m, 90*time.Second, time.Minute)
	if got := m.RecoveryStats().Downtime; got != 135*time.Second {
		t.Fatalf("Downtime after second restore = %v, want 2m15s", got)
	}
	eng.Run()
}
