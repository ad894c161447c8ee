package simclock

import (
	"container/heap"
	"time"
)

// This file retains the seed event core — a serial container/heap of
// pointer events keyed by time.Time — as a differential-testing oracle
// for the int64 timing-wheel core in simclock.go, the same discipline
// kubesim (reference.go, SetNaiveScheduling) and netsim
// (NewReferenceLink) use for their risky rewrites. NewReferenceEngine
// returns an *Engine whose scheduling routes through this core, so
// every component runs unmodified on either implementation and the
// differential suite can assert exact firing-order equality.

// refEvent is a scheduled callback in the reference core. Fired and
// canceled events return to the core's free list; gen distinguishes a
// recycled event from the one a Timer was issued for.
type refEvent struct {
	at       time.Time
	seq      uint64 // tie-breaker: FIFO among equal times
	gen      uint64 // incremented on recycle; Timers validate it
	fn       func()
	name     string
	eng      *Engine
	canceled bool
	index    int // heap index, -1 once popped
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// refCore is the retained serial event queue.
type refCore struct {
	now    time.Time
	start  time.Time
	events refHeap
	free   []*refEvent // recycled events
}

// NewReferenceEngine returns an Engine backed by the retained seed
// implementation: time.Time keys, container/heap boxing, pointer
// events. It is the oracle for the differential suite and the baseline
// for the engine benchmarks; behaviour is identical to NewEngine by
// construction.
func NewReferenceEngine(start time.Time) *Engine {
	return &Engine{base: start, ref: &refCore{now: start, start: start}}
}

// Reference reports whether the engine routes through the retained
// reference core.
func (e *Engine) Reference() bool { return e.ref != nil }

// refAlloc takes an event from the free list, or makes one.
func (c *refCore) refAlloc() *refEvent {
	if n := len(c.free); n > 0 {
		ev := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return ev
	}
	return &refEvent{}
}

// refRecycle returns a popped event to the free list; bumping gen
// invalidates any Timer still pointing at it.
func (c *refCore) refRecycle(ev *refEvent) {
	ev.gen++
	ev.fn = nil
	ev.name = ""
	ev.canceled = false
	c.free = append(c.free, ev)
}

// refAt is the reference-mode At: times in the past are clamped to the
// current time, preserving FIFO order among same-time events.
func (e *Engine) refAt(at time.Time, name string, fn func()) Timer {
	if fn == nil {
		panic("simclock: nil event callback")
	}
	c := e.ref
	if at.Before(c.now) {
		at = c.now
	}
	e.seq++
	e.scheduled++
	e.pending++
	ev := c.refAlloc()
	ev.at, ev.seq, ev.fn, ev.name, ev.eng = at, e.seq, fn, name, e
	heap.Push(&c.events, ev)
	return Timer{ev: ev, gen: ev.gen}
}

// refStop cancels a reference-mode timer. The event is removed from
// the queue eagerly — components that re-arm a timer on every state
// change (the network model's completion timer) would otherwise bury
// the queue in canceled entries and pay their log factor on every
// pop.
func refStop(ev *refEvent, gen uint64) bool {
	if ev == nil || ev.gen != gen || ev.canceled {
		return false
	}
	if ev.index == -1 {
		// Already popped (fired or firing).
		return false
	}
	ev.canceled = true
	eng := ev.eng
	heap.Remove(&eng.ref.events, ev.index)
	eng.pending--
	eng.ref.refRecycle(ev)
	return true
}

// refStep executes the single next event, advancing the clock to its
// scheduled time.
func (e *Engine) refStep() bool {
	c := e.ref
	for len(c.events) > 0 {
		ev := heap.Pop(&c.events).(*refEvent)
		if ev.canceled {
			c.refRecycle(ev)
			continue
		}
		if ev.at.After(c.now) {
			c.now = ev.at
		}
		e.processed++
		e.pending--
		fn := ev.fn
		c.refRecycle(ev)
		fn()
		return true
	}
	return false
}

// refNextAt reports the scheduled time of the next event, if any.
func (e *Engine) refNextAt() (time.Time, bool) {
	c := e.ref
	for len(c.events) > 0 {
		next := c.events[0]
		if next.canceled {
			c.refRecycle(heap.Pop(&c.events).(*refEvent))
			continue
		}
		return next.at, true
	}
	return time.Time{}, false
}
