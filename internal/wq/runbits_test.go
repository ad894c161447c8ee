package wq

import (
	"math/bits"
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// checkRunBits asserts the running-id bitset is exactly the union of
// the connected workers' running sets, that every word below the
// low-water mark is clear, and that ForEachRunning visits those tasks
// in strictly ascending ID order.
func checkRunBits(t *testing.T, m *Master) {
	t.Helper()
	want := make(map[int]bool)
	for _, w := range m.roster {
		if w == nil {
			continue
		}
		for _, id := range w.running.ids {
			want[int(id)] = true
		}
	}
	n := 0
	for i, word := range m.runIDs.words {
		if i < m.runIDs.lo && word != 0 {
			t.Fatalf("runIDs word %d is set below the low-water mark %d", i, m.runIDs.lo)
		}
		for b := word; b != 0; b &= b - 1 {
			if id := i<<6 | bits.TrailingZeros64(b); !want[id] {
				t.Fatalf("task %d marked running but on no worker", id)
			}
			n++
		}
	}
	if n != len(want) {
		t.Fatalf("runIDs holds %d tasks, workers run %d", n, len(want))
	}
	prev, visited := 0, 0
	m.ForEachRunning(func(tk *Task) {
		if tk.ID <= prev {
			t.Fatalf("ForEachRunning visited %d after %d", tk.ID, prev)
		}
		if tk.State != TaskRunning {
			t.Fatalf("ForEachRunning visited task %d in state %v", tk.ID, tk.State)
		}
		prev = tk.ID
		visited++
	})
	if visited != len(want) || (!m.down && visited != m.Stats().Running) {
		t.Fatalf("ForEachRunning visited %d, workers run %d, Stats.Running %d", visited, len(want), m.Stats().Running)
	}
}

// runChecked advances the engine to until one event at a time,
// checking the bitset invariant after every event.
func runChecked(t *testing.T, eng *simclock.Engine, m *Master, until time.Time) {
	t.Helper()
	stop := false
	eng.At(until, "test-stop", func() { stop = true })
	for !stop && eng.Step() {
		checkRunBits(t, m)
	}
}

// TestRunningBitsTrackWorkerSets replays the kill, retry and snapshot
// scripts of the master's own tests — kills with backoff, quarantine,
// fast-abort, cancellation in and out of backoff, drains, and
// crash/restore with rescue, expiry and fencing — over enough tasks to
// span several bitset words, checking the invariant after every event
// and every API call.
func TestRunningBitsTrackWorkerSets(t *testing.T) {
	big := resources.New(4, 16384, 1000)

	t.Run("kill", func(t *testing.T) {
		eng, m := newMaster(t)
		m.SetRetryPolicy(RetryPolicy{BackoffBase: 30 * time.Second, BackoffMax: 2 * time.Minute})
		for _, w := range []string{"w1", "w2", "w3"} {
			m.AddWorker(w, big)
		}
		var ids []int
		for i := 0; i < 150; i++ {
			ids = append(ids, m.Submit(knownTask("align", 1, time.Duration(1+i%7)*time.Minute)))
		}
		runChecked(t, eng, m, t0.Add(90*time.Second))
		if err := m.KillWorker("w2"); err != nil {
			t.Fatal(err)
		}
		checkRunBits(t, m)
		m.AddWorker("w4", big)
		runChecked(t, eng, m, t0.Add(3*time.Minute))
		if err := m.DrainWorker("w1", nil); err != nil {
			t.Fatal(err)
		}
		checkRunBits(t, m)
		for _, id := range ids[100:110] {
			_ = m.Cancel(id)
			checkRunBits(t, m)
		}
		if err := m.KillWorker("w3"); err != nil {
			t.Fatal(err)
		}
		checkRunBits(t, m)
		runChecked(t, eng, m, t0.Add(6*time.Hour))
		if s := m.Stats(); s.Running != 0 || s.Waiting != 0 {
			t.Fatalf("unfinished work at %v: %+v", eng.Elapsed(), s)
		}
	})

	t.Run("retry", func(t *testing.T) {
		eng, m := newMaster(t)
		m.SetEstimator(meanEstimator{mean: 10 * time.Second})
		m.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BackoffBase: 5 * time.Second, FastAbortMultiplier: 3})
		m.AddWorker("w1", big)
		m.AddWorker("w2", big)
		for i := 0; i < 80; i++ {
			d := 10 * time.Second
			if i%5 == 0 {
				d = 5 * time.Minute // straggler: fast-aborted until quarantined
			}
			m.Submit(knownTask("align", 1, d))
		}
		runChecked(t, eng, m, t0.Add(20*time.Second))
		if err := m.KillWorker("w1"); err != nil {
			t.Fatal(err)
		}
		checkRunBits(t, m)
		m.AddWorker("w3", big)
		runChecked(t, eng, m, t0.Add(time.Hour))
		if s := m.Stats(); s.Running != 0 || s.Waiting != 0 || s.Quarantined == 0 {
			t.Fatalf("stats after retries: %+v", s)
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		eng, m := newMaster(t)
		m.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BackoffBase: 5 * time.Second})
		m.AddWorker("w1", big)
		m.AddWorker("w2", big)
		for i := 0; i < 100; i++ {
			m.Submit(knownTask("align", 1, 4*time.Minute))
		}
		runChecked(t, eng, m, t0.Add(3*time.Minute))

		// Rescue: every worker reattaches inside the window.
		snap, workers := m.Crash()
		checkRunBits(t, m)
		runChecked(t, eng, m, eng.Now().Add(20*time.Second))
		m.Restore(snap, time.Minute)
		checkRunBits(t, m)
		for _, w := range workers {
			if err := m.AttachWorker(w); err != nil {
				t.Fatal(err)
			}
			checkRunBits(t, m)
		}
		runChecked(t, eng, m, eng.Now().Add(5*time.Minute))

		// Expiry and fencing: w1 comes back only after its attempts were
		// requeued and redispatched on a fresh worker.
		snap, workers = m.Crash()
		m.Restore(snap, 0)
		checkRunBits(t, m)
		m.AddWorker("w3", big)
		runChecked(t, eng, m, eng.Now().Add(time.Minute))
		for _, w := range workers {
			if err := m.AttachWorker(w); err != nil {
				t.Fatal(err)
			}
			checkRunBits(t, m)
		}
		runChecked(t, eng, m, eng.Now().Add(2*time.Hour))
		if s := m.Stats(); s.Running != 0 || s.Waiting != 0 {
			t.Fatalf("unfinished work at %v: %+v", eng.Elapsed(), s)
		}
	})
}
