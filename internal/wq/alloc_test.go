package wq

import (
	"fmt"
	"testing"
	"time"

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
