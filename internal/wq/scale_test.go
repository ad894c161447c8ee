package wq

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// TestCancelWhileWaitingLargeQueue is the regression test for the
// indexed waiting queue: cancel a large scattered subset of a big
// queue (the case the old O(n)-per-cancel scan made quadratic) and
// check that exactly the survivors run, in queue order.
func TestCancelWhileWaitingLargeQueue(t *testing.T) {
	eng, m := newMaster(t)
	done := results(m)
	const n = 5000
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		spec := knownTask("bulk", 1, time.Second)
		spec.Priority = i % 3
		ids = append(ids, m.Submit(spec))
	}
	canceled := make(map[int]bool)
	for i, id := range ids {
		if i%2 == 0 || i%7 == 3 {
			if err := m.Cancel(id); err != nil {
				t.Fatalf("Cancel(%d): %v", id, err)
			}
			canceled[id] = true
		}
	}
	if got, want := m.Stats().Waiting, n-len(canceled); got != want {
		t.Fatalf("Waiting = %d, want %d", got, want)
	}
	// The queue must report exactly the survivors, in submission order
	// (equal priorities aside — WaitingTasks is global queue order).
	waiting := m.WaitingTasks()
	if len(waiting) != n-len(canceled) {
		t.Fatalf("len(WaitingTasks) = %d, want %d", len(waiting), n-len(canceled))
	}
	prev := 0
	for _, w := range waiting {
		if canceled[w.ID] {
			t.Fatalf("canceled task %d still waiting", w.ID)
		}
		if w.ID <= prev {
			t.Fatalf("queue order violated: %d after %d", w.ID, prev)
		}
		prev = w.ID
	}
	m.AddWorker("w1", resources.New(4, 16384, 100000))
	eng.Run()
	if got, want := m.CompletedCount(), n-len(canceled); got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	for _, id := range ids {
		// A canceled task stays at the master; a completed one is
		// delivered exactly once and then released.
		task, held := m.Task(id)
		if !canceled[id] {
			var delivered bool
			task, delivered = done[id]
			if held || !delivered {
				t.Fatalf("task %d held=%v delivered=%v, want a released completion", id, held, delivered)
			}
		} else if !held {
			t.Fatalf("task %d lost", id)
		}
		want := TaskComplete
		if canceled[id] {
			want = TaskCanceled
		}
		if task.State != want {
			t.Fatalf("task %d state = %v, want %v", id, task.State, want)
		}
	}
}

// runDeterminismTrace drives a master through a mixed scenario —
// priorities, unknown-resource (exclusive) tasks, cancellations, a
// worker kill, a drain — and returns a trace of every completion.
func runDeterminismTrace(seed int64) string {
	return runPlacementTrace(seed, FirstFit, false, false)
}

// runPlacementTrace is runDeterminismTrace parameterized over the
// engine implementation and the placement path, so the differential
// test can assert that the avail-index FirstFit, the retained linear
// scan, and both event cores all produce byte-identical outcomes.
func runPlacementTrace(seed int64, policy Policy, reference, naive bool) string {
	eng := simclock.NewEngine(t0)
	if reference {
		eng = simclock.NewReferenceEngine(t0)
	}
	m := NewMaster(eng, nil)
	m.SetPolicy(policy)
	m.SetNaivePlacement(naive)
	var b strings.Builder
	m.OnComplete(func(r Result) {
		fmt.Fprintf(&b, "%d %s %s %d %v %d\n",
			r.Task.ID, r.Task.Category, r.Task.WorkerID, r.Task.Priority,
			r.Task.FinishedAt.Sub(t0), r.Task.Attempts)
	})
	for i := 0; i < 8; i++ {
		m.AddWorker(fmt.Sprintf("w%d", i), resources.New(4, 16384, 100000))
	}
	rng := simclock.NewRNG(seed)
	var ids []int
	for i := 0; i < 400; i++ {
		spec := knownTask("mix", 1+float64(i%2), time.Duration(rng.Jitter(float64(3*time.Minute), 0.6)))
		spec.Priority = i % 3
		if i%17 == 5 {
			spec.Resources = resources.Zero // exclusive placement path
		}
		ids = append(ids, m.Submit(spec))
	}
	eng.After(2*time.Minute, "cancel-some", func() {
		for i := 10; i < 60; i += 3 {
			m.Cancel(ids[i]) // some waiting, some running, some done
		}
	})
	eng.After(5*time.Minute, "kill", func() { m.KillWorker("w3") })
	eng.After(9*time.Minute, "drain", func() { m.DrainWorker("w5", nil) })
	eng.Run()
	fmt.Fprintf(&b, "completed=%d\n", m.CompletedCount())
	return b.String()
}

// TestDispatchDeterministic asserts the indexed dispatch path is
// reproducible: the same seed yields a byte-identical completion
// trace across runs, and different seeds genuinely differ.
func TestDispatchDeterministic(t *testing.T) {
	a, b := runDeterminismTrace(7), runDeterminismTrace(7)
	if a != b {
		t.Fatalf("same seed, different traces:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if a == runDeterminismTrace(8) {
		t.Fatal("different seeds produced identical traces; trace is insensitive")
	}
}
