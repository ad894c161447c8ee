package simclock

import (
	"container/heap"
	"fmt"
	"time"
)

// This file keeps the seed event core — a serial container/heap of
// pointer events keyed by time.Time — as refEngine, the oracle for the
// int64 timing-wheel core in simclock.go. The differential, fuzz and
// bench tests drive both through the clock interface below, so one
// scenario runs unmodified on either implementation and the firing
// logs can be compared event for event.

// clock is the engine surface the scenarios use. engineClock adapts
// *Engine to it; *refEngine implements it directly.
type clock interface {
	At(at time.Time, name string, fn func()) timer
	After(d time.Duration, name string, fn func()) timer
	AfterArg(d time.Duration, name string, fn func(any), arg any) timer
	Every(period time.Duration, name string, fn func()) ticker
	Step() bool
	Run()
	RunUntil(deadline time.Time)
	RunFor(d time.Duration)
	Now() time.Time
	Elapsed() time.Duration
	Processed() uint64
	Pending() int
}

// ticker is the periodic-controller surface: *Ticker or *refTicker.
type ticker interface {
	Stop()
	Reset(period time.Duration)
}

// timer is the handle a clock returns: a production Timer, or a
// reference event and the generation it was issued at. It is a value,
// like Timer, so scheduling through the interface allocates nothing.
type timer struct {
	t   Timer
	ev  *refEvent
	gen uint64
}

// Stop cancels the event on whichever engine issued it.
func (h timer) Stop() bool {
	if h.ev != nil {
		return h.ev.eng.stop(h.ev, h.gen)
	}
	return h.t.Stop()
}

// engineClock adapts the production engine to clock.
type engineClock struct{ *Engine }

func (c engineClock) At(at time.Time, name string, fn func()) timer {
	return timer{t: c.Engine.At(at, name, fn)}
}

func (c engineClock) After(d time.Duration, name string, fn func()) timer {
	return timer{t: c.Engine.After(d, name, fn)}
}

func (c engineClock) AfterArg(d time.Duration, name string, fn func(any), arg any) timer {
	return timer{t: c.Engine.AfterArg(d, name, fn, arg)}
}

func (c engineClock) Every(period time.Duration, name string, fn func()) ticker {
	return c.Engine.Every(period, name, fn)
}

// refEvent is a scheduled callback in the reference core. Fired and
// canceled events return to the free list; gen distinguishes a
// recycled event from the one a timer was issued for.
type refEvent struct {
	at    time.Time
	seq   uint64 // tie-breaker: FIFO among equal times
	gen   uint64 // incremented on recycle; timers validate it
	fn    func(any)
	arg   any
	eng   *refEngine
	index int // heap index, -1 once popped
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

// refEngine is the seed engine. Canceled events leave the heap
// eagerly, so the heap holds exactly the pending events and Pending is
// its length — counted independently of Engine's derivation from its
// totals.
type refEngine struct {
	now, start time.Time
	seq        uint64
	processed  uint64
	events     refHeap
	free       []*refEvent
}

func newRefEngine(start time.Time) *refEngine {
	return &refEngine{now: start, start: start}
}

func (e *refEngine) Now() time.Time         { return e.now }
func (e *refEngine) Elapsed() time.Duration { return e.now.Sub(e.start) }
func (e *refEngine) Processed() uint64      { return e.processed }
func (e *refEngine) Pending() int           { return len(e.events) }
func (e *refEngine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

func (e *refEngine) Run() {
	for e.Step() {
	}
}

func (e *refEngine) At(at time.Time, name string, fn func()) timer {
	if fn == nil {
		panic("simclock: nil event callback")
	}
	return e.schedule(at, callFunc, fn)
}

func (e *refEngine) After(d time.Duration, name string, fn func()) timer {
	return e.At(e.now.Add(max(d, 0)), name, fn)
}

func (e *refEngine) AfterArg(d time.Duration, name string, fn func(any), arg any) timer {
	if fn == nil {
		panic("simclock: nil event callback")
	}
	return e.schedule(e.now.Add(max(d, 0)), fn, arg)
}

// schedule clamps times in the past to now, preserving FIFO order
// among same-time events.
func (e *refEngine) schedule(at time.Time, fn func(any), arg any) timer {
	if at.Before(e.now) {
		at = e.now
	}
	e.seq++
	var ev *refEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &refEvent{eng: e}
	}
	ev.at, ev.seq, ev.fn, ev.arg = at, e.seq, fn, arg
	heap.Push(&e.events, ev)
	return timer{ev: ev, gen: ev.gen}
}

// recycle returns a popped event to the free list; bumping gen
// invalidates any timer still pointing at it.
func (e *refEngine) recycle(ev *refEvent) {
	ev.gen++
	ev.fn, ev.arg = nil, nil
	e.free = append(e.free, ev)
}

// stop removes a pending event from the heap eagerly.
func (e *refEngine) stop(ev *refEvent, gen uint64) bool {
	if ev.gen != gen || ev.index == -1 {
		return false // fired, firing, or already stopped
	}
	heap.Remove(&e.events, ev.index)
	e.recycle(ev)
	return true
}

// Step executes the single next event, advancing the clock to its
// scheduled time.
func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*refEvent)
	if ev.at.After(e.now) {
		e.now = ev.at
	}
	e.processed++
	fn, arg := ev.fn, ev.arg
	e.recycle(ev)
	fn(arg)
	return true
}

// RunUntil executes events with scheduled time <= deadline, then
// advances the clock to deadline.
func (e *refEngine) RunUntil(deadline time.Time) {
	for len(e.events) > 0 && !e.events[0].at.After(deadline) {
		e.Step()
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
}

// refTicker is the seed ticker over refEngine, with Ticker's contract:
// the first firing one period after Every, and a Reset inside the
// callback arms the next firing itself.
type refTicker struct {
	e       *refEngine
	period  time.Duration
	name    string
	fn      func()
	run     func()
	timer   timer
	stopped bool
}

func (e *refEngine) Every(period time.Duration, name string, fn func()) ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: non-positive ticker period %v", period))
	}
	t := &refTicker{e: e, period: period, name: name, fn: fn}
	t.run = func() {
		if t.stopped {
			return
		}
		fired := t.timer
		t.fn()
		if !t.stopped && t.timer == fired {
			t.timer = t.e.After(t.period, t.name, t.run)
		}
	}
	t.timer = e.After(period, name, t.run)
	return t
}

func (t *refTicker) Stop() {
	if !t.stopped {
		t.stopped = true
		t.timer.Stop()
	}
}

func (t *refTicker) Reset(period time.Duration) {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: non-positive ticker period %v", period))
	}
	if t.stopped {
		return
	}
	t.period = period
	t.timer.Stop()
	t.timer = t.e.After(t.period, t.name, t.run)
}
