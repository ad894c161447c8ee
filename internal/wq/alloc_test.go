package wq

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hta/internal/netsim"
	"hta/internal/resources"
	"hta/internal/simclock"
)

// TestDispatchSteadyStateZeroAlloc pins the steady-state cost of the
// full submit → dispatch → execute → complete cycle at zero
// allocations per task. Everything on that path draws from recycled
// or slab-backed storage — Task records from the retired-record free
// list (or the task slab), dispatch records from their free list,
// timers from the engine's record slab, wheel slots from intrusive
// lists — so once the slabs have headroom a task churns through the
// master without touching the garbage collector. The warmup below
// churns enough tasks to size the recycled pools (queue buckets,
// engine records, dispatch records), then continues until every table
// that grows with fresh records or with the task ID (task slab, byID
// index, queue position index, free-list and running-ID bitsets) has
// room for the whole measured run, and then verifies the amortization
// really is over: 100 measured cycles must not allocate at all.
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	for i := 0; i < 8; i++ {
		m.AddWorker(fmt.Sprintf("w%d", i), resources.New(4, 16384, 100000))
	}
	spec := knownTask("steady", 1, 30*time.Second)

	// Warm up: churn enough tasks to grow every amortized structure,
	// then keep going until the slab and the per-ID tables have
	// headroom for the whole measured run (every cycle takes a new ID;
	// a table growing inside the probe would show up as a fractional
	// alloc).
	const runs = 100
	headroom := func() bool {
		next := m.nextID + runs + 1
		return cap(m.taskSlab)-len(m.taskSlab) > runs+1 &&
			cap(m.byID) > next && cap(m.waiting.pos) > next &&
			cap(m.freeIDs.words)*64 > next && cap(m.runIDs.words)*64 > next
	}
	for i := 0; i < 4096 || !headroom(); i++ {
		m.Submit(spec)
		eng.Run()
	}

	avg := testing.AllocsPerRun(runs, func() {
		m.Submit(spec)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state dispatch cycle allocates %v objects/task, want 0", avg)
	}
}

// TestAttemptRampAllocs ramps 16 384 attempts, all in flight at once,
// onto fresh dispatch records: each stages a private input over the
// master's link, executes and sends its output back over the link.
// The whole ramp, from the first dispatch to the last completion,
// allocates only storage that grows with the peak and is then reused:
// four dispatch-record slabs of 4096, and the engine's record slab, the
// link's transfer slab and heap, and the free lists and scratch beside
// them, each growing geometrically in about 20 steps to 16 k entries
// (166 allocations in all when this was written). Nothing is
// allocated per attempt: the attempt's events and transfers carry the
// record as their argument to callbacks the master bound once, and a
// transfer is a slab slot behind a value handle. One closure or
// *Transfer per attempt would add 16 384 allocations.
func TestAttemptRampAllocs(t *testing.T) {
	const n = 16384
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, netsim.NewLink(eng, 1e4, 0)) // inputs take 16.4 s, outputs 8.2 s
	for i := 0; i < n/4; i++ {
		m.AddWorker(fmt.Sprintf("w%d", i), resources.New(4, 16384, 100000))
	}
	spec := knownTask("ramp", 1, time.Hour)
	spec.InputMB, spec.OutputMB = 10, 5
	for i := 0; i < n; i++ {
		m.Submit(spec)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.RunFor(time.Second) // dispatch all, every input in flight
	running, inputs := m.Stats().Running, m.link.Active()
	eng.RunUntil(t0.Add(time.Hour + 20*time.Second)) // every output in flight
	outputs := m.link.Active()
	eng.Run()
	runtime.ReadMemStats(&after)
	if running != n || inputs != n || outputs != n || m.CompletedCount() != n {
		t.Fatalf("running %d with %d inputs in flight, then %d outputs, %d completed; want %d each",
			running, inputs, outputs, m.CompletedCount(), n)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations for a %d-attempt ramp", allocs, n)
	if allocs > 200 {
		t.Errorf("a %d-attempt ramp allocates %d times, want at most 200 (slab growth only)", n, allocs)
	}
}
