package wq

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hta/internal/resources"
)

// TestTaskRecordsBoundedUnderChurn pins the record lifecycle's memory
// bound: an open system that keeps a few hundred tasks live while
// 100k flow through takes no more records from fresh slab capacity
// than its peak live count plus one free list's worth, and no more
// cold entries than records. Before
// completed records were retired and reused, every submission took a
// fresh record for the master's lifetime.
func TestTaskRecordsBoundedUnderChurn(t *testing.T) {
	eng, m := newMaster(t)
	for i := 0; i < 16; i++ {
		m.AddWorker(fmt.Sprintf("w%d", i), resources.New(4, 16384, 1000))
	}
	rng := rand.New(rand.NewSource(7))
	const n = 100_000
	peak := 0
	for i := 0; i < n; i++ {
		spec := knownTask("churn", 1, time.Duration(1+rng.Intn(20))*time.Second)
		spec.Tag = fmt.Sprintf("t%d", i)
		m.Submit(spec)
		peak = max(peak, m.SubmittedCount()-m.CompletedCount())
		if i%8 == 7 {
			eng.RunFor(time.Duration(rng.Intn(6)) * time.Second)
		}
	}
	eng.Run()
	if m.CompletedCount() != n {
		t.Fatalf("completed %d of %d", m.CompletedCount(), n)
	}
	if peak > 500 {
		t.Fatalf("peak live = %d, want the churn to keep a few hundred tasks live", peak)
	}
	if m.slabTaken > peak+retiredCap {
		t.Fatalf("%d records taken from fresh slab capacity for %d tasks, want at most peak live %d + %d",
			m.slabTaken, n, peak, retiredCap)
	}
	if m.freeN > retiredCap {
		t.Fatalf("free list holds %d records, cap %d", m.freeN, retiredCap)
	}
	// Cold entries belong to records, so they are bounded with them and
	// emptied when their tasks complete.
	if got := len(m.cold.chunks); got > (m.slabTaken+coldChunk-1)/coldChunk {
		t.Fatalf("%d cold chunks for %d records", got, m.slabTaken)
	}
	checkColdEmpty(t, m)
	tags := m.CompletedTags()
	if len(tags) != n {
		t.Fatalf("CompletedTags has %d entries, want %d", len(tags), n)
	}
	for i, tag := range tags {
		if tag != fmt.Sprintf("t%d", i) {
			t.Fatalf("CompletedTags[%d] = %q, want t%d", i, tag, i)
		}
	}
}

// TestCompletedTaskRetired pins the completed-task contract: the
// record answers Task inside its OnComplete call, is gone afterwards,
// went out whole in the Result, and its reused slot never answers for
// the old ID — not to Task, Cancel, a reattaching worker or a sweep
// over the ID range.
func TestCompletedTaskRetired(t *testing.T) {
	eng, m := newMaster(t)
	var got Result
	inCallback := false
	m.OnComplete(func(r Result) {
		if r.Task.Tag != "a" {
			return
		}
		got = r
		tk, ok := m.Task(r.Task.ID)
		inCallback = ok && tk.State == TaskComplete && tk.Tag == "a"
	})
	m.AddWorker("w1", resources.New(2, 8192, 1000))
	spec := knownTask("align", 1, 10*time.Second)
	spec.Tag, spec.Command = "a", "blastall -i a"
	a := m.Submit(spec)
	rec := m.byID[a]
	eng.Run()

	if !inCallback {
		t.Error("Task(id) did not answer for the completing task inside OnComplete")
	}
	if _, ok := m.Task(a); ok {
		t.Fatal("Task(id) still answers for a completed task")
	}
	r := got.Task
	if r.ID != a || r.Tag != "a" || r.Command != "blastall -i a" || r.State != TaskComplete ||
		r.WorkerID != "w1" || r.Attempts != 1 || r.Gen != 1 ||
		!r.FinishedAt.Equal(t0.Add(10*time.Second)) || r.ExecWall != 10*time.Second ||
		r.Measured.MilliCPU != 900 || r.Allocated != spec.Resources {
		t.Fatalf("Result = %+v, want the full completed record", r)
	}
	if err := m.Cancel(a); err == nil || !strings.Contains(err.Error(), "already completed") {
		t.Fatalf("Cancel(completed) = %v, want an already-completed error", err)
	}
	if err := m.Cancel(a + 100); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("Cancel(unissued) = %v, want a not-found error", err)
	}

	// The next submission reuses the retired record under a new ID; a
	// task too large for the fleet keeps it waiting.
	big := knownTask("huge", 64, time.Minute)
	big.Tag = "b"
	b := m.Submit(big)
	if m.byID[b] != rec {
		t.Fatal("the next Submit did not reuse the retired record")
	}
	if _, ok := m.Task(a); ok {
		t.Fatalf("Task(%d) answers through the slot reused by task %d", a, b)
	}
	if tk, ok := m.Task(b); !ok || tk.ID != b || tk.Tag != "b" || tk.State != TaskWaiting {
		t.Fatalf("Task(%d) = %+v, %v", b, tk, ok)
	}
	if err := m.Cancel(a); err == nil {
		t.Fatal("Cancel of the retired ID canceled the task reusing its slot")
	}

	// A worker reporting the retired ID (at the generation it ran) is
	// fenced, as it was when completed records were kept.
	fenced := m.RecoveryStats().FencedAttempts
	err := m.AttachWorker(WorkerReattach{
		ID:         "w2",
		Capacity:   resources.New(2, 8192, 1000),
		DetachedAt: eng.Now(),
		Inflight:   []InflightTask{{ID: a, Gen: 1, Remaining: time.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RecoveryStats().FencedAttempts; got != fenced+1 {
		t.Fatalf("FencedAttempts = %d, want %d", got, fenced+1)
	}
	if tk, _ := m.Task(b); tk.State != TaskWaiting || m.Stats().Running != 0 {
		t.Fatalf("fenced attempt disturbed task %d: %+v", b, tk)
	}

	// Sweeps over the ID range see the reused record once, under its
	// own ID.
	if n := m.FailAllPending(); n != 1 {
		t.Fatalf("FailAllPending quarantined %d tasks, want 1", n)
	}
	if got := m.QuarantinedTags(); !slices.Equal(got, []string{"b"}) {
		t.Fatalf("QuarantinedTags = %q, want [b]", got)
	}
	if got := m.Snapshot().Tasks; len(got) != 1 || got[0].ID != b {
		t.Fatalf("Snapshot.Tasks = %+v, want only task %d", got, b)
	}
}

// TestCompletedTagsSurviveRestore pins the completion log across a
// master restart: CompletedTags (flow.Recover's extraDone) reads the
// same before Crash and after Restore, though the completed records
// themselves are gone from the snapshot, and keeps growing afterwards.
func TestCompletedTagsSurviveRestore(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(2, 8192, 1000))
	for i := 0; i < 6; i++ {
		spec := knownTask("a", 1, time.Duration(6-i)*time.Minute)
		if i != 2 {
			spec.Tag = fmt.Sprintf("n%d", i)
		}
		m.Submit(spec)
	}
	eng.RunUntil(t0.Add(7 * time.Minute))
	// n1 (5 min) completed before n0 (6 min); the log reads by ID.
	before := m.CompletedTags()
	if !slices.Equal(before, []string{"n0", "n1"}) {
		t.Fatalf("CompletedTags = %q, want [n0 n1] in ID order", before)
	}

	snap, workers := m.Crash()
	for _, tk := range snap.Tasks {
		if tk.State == TaskComplete {
			t.Fatalf("snapshot carries completed task %d", tk.ID)
		}
	}
	if len(snap.Tasks) != 4 || len(snap.Completed) != 2 {
		t.Fatalf("snapshot has %d tasks and %d log entries, want 4 and 2", len(snap.Tasks), len(snap.Completed))
	}
	m.Restore(snap, time.Minute)
	for _, w := range workers {
		if err := m.AttachWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if after := m.CompletedTags(); !slices.Equal(after, before) {
		t.Fatalf("CompletedTags after Restore = %q, want %q", after, before)
	}
	eng.Run()
	if m.CompletedCount() != 6 {
		t.Fatalf("completed %d, want 6", m.CompletedCount())
	}
	want := []string{"n0", "n1", "n3", "n4", "n5"} // the untagged task is not logged
	if got := m.CompletedTags(); !slices.Equal(got, want) {
		t.Fatalf("CompletedTags after the run = %q, want %q", got, want)
	}
}

// TestCrashInsideOnComplete crashes the master from a completion
// subscriber and restores it afterwards: the completing record belongs
// to the crashed incarnation, so it must neither enter the restored
// master's free list nor its snapshot, and its completion survives in
// the log.
func TestCrashInsideOnComplete(t *testing.T) {
	eng, m := newMaster(t)
	var snap Snapshot
	var workers []WorkerReattach
	crashed := false
	m.OnComplete(func(r Result) {
		if !crashed {
			crashed = true
			snap, workers = m.Crash()
		}
	})
	m.AddWorker("w1", resources.New(2, 8192, 1000))
	first := knownTask("a", 1, time.Minute)
	first.Tag = "first"
	a := m.Submit(first)
	second := knownTask("a", 1, 10*time.Minute)
	second.Tag = "second"
	m.Submit(second)
	eng.RunUntil(t0.Add(2 * time.Minute))
	if !crashed || !m.Down() {
		t.Fatal("subscriber did not crash the master")
	}
	for _, tk := range snap.Tasks {
		if tk.ID == a {
			t.Fatalf("snapshot carries the completing task: %+v", tk)
		}
	}
	m.Restore(snap, time.Minute)
	for _, w := range workers {
		if err := m.AttachWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := m.Task(a); ok {
		t.Fatalf("restored master holds completed task %d", a)
	}
	third := knownTask("a", 1, time.Minute)
	third.Tag = "third"
	m.Submit(third)
	eng.Run()
	if got, want := m.CompletedTags(), []string{"first", "second", "third"}; !slices.Equal(got, want) {
		t.Fatalf("CompletedTags = %q, want %q", got, want)
	}
}
