package wq

import (
	"fmt"
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// TestPlacementDifferential pins the avail index to a linear scan of
// the roster in join order, which is FirstFit placement without the
// index: after every event of a seeded mixed scenario (priorities,
// exclusive tasks, cancellations, a worker kill, two drains), under
// each policy, findFirst of every probe shape must name the first
// eligible worker the scan finds and maxFree must be the scan's
// componentwise max.
func TestPlacementDifferential(t *testing.T) {
	for _, policy := range []Policy{FirstFit, BestFit, WorstFit} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			steps := 0
			trace := runPlacementTrace(3, policy, func(m *Master, step int) {
				checkAvail(t, m, step)
				steps++
			})
			if steps < 500 {
				t.Fatalf("scenario too small: %d steps", steps)
			}
			if trace != runPlacementTrace(3, policy, nil) {
				t.Fatal("the checks perturbed the run")
			}
		})
	}
}

// availProbes are the request shapes checkAvail looks up: the
// scenario's own one- and two-core tasks, and shapes that fit only
// partly used, only idle, or no workers.
var availProbes = []resources.Vector{
	resources.New(0.5, 512, 10),
	resources.New(1, 1024, 100),
	resources.New(2, 1024, 100),
	resources.New(3, 1024, 100),
	resources.New(4, 16384, 100000),
	resources.New(1, 16000, 100),
	resources.New(5, 1024, 100),
}

// checkAvail compares the avail index with a linear scan of m.roster.
func checkAvail(t *testing.T, m *Master, step int) {
	t.Helper()
	var maxFree resources.Vector
	for _, w := range m.roster {
		if w != nil && !w.draining {
			maxFree = maxFree.Max(w.pool.Available())
		}
	}
	if got := m.avail.maxFree(); got != maxFree {
		t.Fatalf("step %d: maxFree %v, roster scan %v", step, got, maxFree)
	}
	for _, shape := range availProbes {
		want := -1
		for slot, w := range m.roster {
			if w != nil && !w.draining && shape.Fits(w.pool.Available()) {
				want = slot
				break
			}
		}
		if got := m.avail.findFirst(shape); got != want {
			t.Fatalf("step %d: findFirst(%v) = slot %d, roster scan %d", step, shape, got, want)
		}
	}
}

// TestAvailIndexFindFirst exercises the segment tree directly:
// leftmost-fit across growth, updates, and multi-dimension misses.
func TestAvailIndexFindFirst(t *testing.T) {
	var ix availIndex
	vec := func(c float64, m int64) resources.Vector { return resources.New(c, m, 0) }
	ix.ensure(1)
	ix.set(0, vec(4, 1000))
	for i := 1; i < 9; i++ {
		ix.ensure(i + 1)
		ix.set(i, vec(float64(i%4), 1000))
	}
	if got := ix.findFirst(vec(3, 500)); got != 0 {
		t.Fatalf("findFirst(3c) = %d, want 0", got)
	}
	ix.set(0, resources.Zero)
	if got := ix.findFirst(vec(3, 500)); got != 3 {
		t.Fatalf("findFirst(3c) after drain = %d, want 3", got)
	}
	// Multi-dimension miss: max CPU and max memory on different slots.
	ix.reset([]resources.Vector{vec(8, 100), vec(1, 9000)})
	if got := ix.findFirst(vec(8, 8000)); got != -1 {
		t.Fatalf("findFirst(8c/8G) = %d, want -1 (no single worker fits)", got)
	}
	if got := ix.maxFree(); got != vec(8, 9000) {
		t.Fatalf("maxFree = %v, want componentwise max", got)
	}
	if got := ix.findFirst(vec(1, 8000)); got != 1 {
		t.Fatalf("findFirst(1c/8G) = %d, want 1", got)
	}
}

// TestRosterCompaction churns workers through join/kill cycles until
// tombstones force compaction, then checks placement still follows
// join order and the aggregates survived.
func TestRosterCompaction(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	cap4 := resources.New(4, 16384, 100000)
	for i := 0; i < 200; i++ {
		if err := m.AddWorker(fmt.Sprintf("w%d", i), cap4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		if err := m.KillWorker(fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction fired at least once (kills outnumber the threshold),
	// so the roster can never be tombstone-dominated...
	if m.tombs > 64 && m.tombs > len(m.roster)/2 {
		t.Fatalf("roster uncompacted: %d tombstones in %d slots", m.tombs, len(m.roster))
	}
	if len(m.roster) >= 200 {
		t.Fatalf("roster never compacted: %d slots for 50 live workers", len(m.roster))
	}
	// ...and live slots must exactly cover the surviving workers.
	live := 0
	for _, w := range m.roster {
		if w != nil {
			live++
		}
	}
	if live != 50 || len(m.roster)-live != m.tombs {
		t.Fatalf("roster live=%d tombs=%d len=%d, want 50 live", live, m.tombs, len(m.roster))
	}
	// Join order must survive compaction: w150 is the oldest survivor.
	m.Submit(knownTask("after", 1, time.Minute))
	eng.RunFor(time.Second)
	tk := m.RunningTasks()
	if len(tk) != 1 || tk[0].WorkerID != "w150" {
		t.Fatalf("first fit after compaction = %+v, want w150", tk)
	}
	if got := m.Stats().Workers; got != 50 {
		t.Fatalf("Workers = %d, want 50", got)
	}
	if want := resources.New(200, 50*16384, 50*100000); m.Stats().Capacity != want {
		t.Fatalf("Capacity = %v, want %v", m.Stats().Capacity, want)
	}
	eng.Run()
	if m.CompletedCount() != 1 {
		t.Fatalf("completed = %d", m.CompletedCount())
	}
}

// TestDrainReentrantFinish is the regression test for the
// double-removal the roster refactor surfaced: a completion callback
// that drains the just-idled worker finishes the drain inside the
// callback, and the completion's own drain check must not remove the
// worker (and its capacity aggregates) a second time.
func TestDrainReentrantFinish(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	m.AddWorker("keep", resources.New(4, 16384, 100000))
	m.AddWorker("victim", resources.New(4, 16384, 100000))
	drained := false
	m.OnComplete(func(r Result) {
		if r.Task.WorkerID == "victim" && !drained {
			drained = true
			if err := m.DrainWorker("victim", nil); err != nil {
				t.Errorf("DrainWorker: %v", err)
			}
		}
	})
	// Two tasks so one lands on each worker (4 cores each, 4-core task).
	m.Submit(knownTask("a", 4, time.Minute))
	m.Submit(knownTask("b", 4, 2*time.Minute))
	eng.Run()
	if !drained {
		t.Fatal("drain callback never ran")
	}
	st := m.Stats()
	if st.Workers != 1 || st.DrainingWorkers != 0 {
		t.Fatalf("Workers = %d, DrainingWorkers = %d; want 1, 0", st.Workers, st.DrainingWorkers)
	}
	if want := resources.New(4, 16384, 100000); st.Capacity != want {
		t.Fatalf("Capacity = %v, want %v (double removal would underflow)", st.Capacity, want)
	}
}
