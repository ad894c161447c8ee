// Package simclock provides a deterministic discrete-event simulation
// engine: a virtual clock, an ordered event queue with stable
// tie-breaking, cancellable timers and periodic tickers.
//
// Every simulated component in this repository (the Kubernetes
// control plane, the Work Queue master, the autoscalers, the network
// model) schedules callbacks on a single Engine, so a complete
// multi-hour cluster run executes in milliseconds and is exactly
// reproducible for a given seed.
//
// # Event core
//
// The engine keeps its timeline in int64 nanoseconds relative to the
// start time, so every ordering decision is one integer comparison —
// no time.Time wall/mono case analysis. Events live in a slab of
// packed records addressed by index: scheduling recycles records
// through a free list, cancellation invalidates through a generation
// counter, and the far-horizon queue is a hierarchical timing wheel:
// O(1) insert, bitmap slot scans, and a per-instant seq sort at drain
// time, so no comparison heap sits on the hot path at all.
//
// Records due at the instant currently executing wait in one plain
// FIFO, the same-instant queue, instead of the wheel. The engine only
// advances the clock once that queue is empty; it then drains every
// wheel record bearing the new timestamp into the queue and sorts them
// by seq. Any event scheduled at the executing instant afterwards
// takes a larger seq from the single global counter and appends behind
// them, so consuming the queue front-to-back fires in exactly (time,
// seq) order — the reference engine's heap order by construction,
// which the differential suite in differential_test.go pins down.
//
// The seed implementation — a serial container/heap of pointer events
// keyed by time.Time — is retained in reference.go and selected by
// NewReferenceEngine; it is the oracle for the differential and fuzz
// suites and the baseline the engine benchmarks measure against.
package simclock

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// rec is a packed event record: one callback at one (at, seq), in the
// same-instant queue or a timing-wheel slot until it fires. It fits
// in one 64-byte cache line (TestRecordSize pins the size).
type rec struct {
	at      int64  // firing time, ns since engine base
	seq     uint64 // schedule order; breaks ties between equal at
	gen     uint64 // incremented on recycle; Timers validate it
	fn      func()
	name    string
	next    int32 // intrusive wheel-slot list link; -1 terminates
	stopped bool  // canceled while queued or wheel-resident; never fires
}

// Engine is a single-threaded discrete-event simulation engine.
// It is not safe for concurrent use; all callbacks run on the
// goroutine that calls Run/RunUntil/Step.
type Engine struct {
	base      time.Time // timeline origin; now/at are ns offsets from it
	now       int64
	seq       uint64
	processed uint64
	scheduled uint64
	pending   int

	recs []rec   // packed event slab
	free []int32 // recycled slab indices

	// Far-horizon hierarchical timing wheel; see the "far-horizon
	// timing wheel" section. wheelCnt counts resident records,
	// including lazily canceled ones awaiting cleanup.
	wheel    [wheelLevels]wheelLevel
	wheelCnt int

	// The same-instant queue: records due at now, in seq order, with
	// nowq[nowHead] next to fire. Both reset to zero whenever the
	// queue drains, so a steady cascade reuses the same storage.
	nowq    []int32
	nowHead int

	ref *refCore // non-nil: route through the retained reference core
}

// NewEngine returns an Engine whose clock starts at start.
func NewEngine(start time.Time) *Engine {
	e := &Engine{base: start}
	for level := range e.wheel {
		for b := range e.wheel[level].head {
			e.wheel[level].head[b] = -1
		}
	}
	return e
}

// rel converts an absolute time to engine-relative nanoseconds.
func (e *Engine) rel(t time.Time) int64 { return int64(t.Sub(e.base)) }

// abs converts engine-relative nanoseconds back to an absolute time.
func (e *Engine) abs(ns int64) time.Time { return e.base.Add(time.Duration(ns)) }

// Now returns the current virtual time.
func (e *Engine) Now() time.Time {
	if e.ref != nil {
		return e.ref.now
	}
	return e.abs(e.now)
}

// Elapsed returns the virtual time elapsed since the engine started.
func (e *Engine) Elapsed() time.Duration {
	if e.ref != nil {
		return e.ref.now.Sub(e.ref.start)
	}
	return time.Duration(e.now)
}

// Pending returns the number of scheduled, non-canceled events in
// O(1) from a counter maintained at schedule/cancel/fire — a Pending
// probe inside a hot loop must not pay a queue walk.
func (e *Engine) Pending() int { return e.pending }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Scheduled returns the total number of events ever scheduled via
// At/After/Every, including ones later canceled. Tests use the delta
// across an operation to assert that read paths do not re-arm timers.
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// Timer is a handle to a scheduled event; Stop cancels it. The zero
// Timer is valid and Stop on it is a no-op, so a Timer field needs no
// nil check. Timers are values — copying one is fine, and holding a
// Timer past its event's firing is safe (Stop just reports false).
type Timer struct {
	eng *Engine
	ev  *refEvent // reference mode
	idx int32
	gen uint64
}

// Stop cancels the timer. It reports whether the event had not yet
// fired (and had not already been stopped). Cancellation is O(1) and
// lazy: the record is marked stopped and skipped — a wheel-resident
// record is recycled when its slot next drains or a minimum scan
// walks it, a queued one (already due at the executing instant) when
// the queue reaches it.
func (t Timer) Stop() bool {
	if t.ev != nil {
		return refStop(t.ev, t.gen)
	}
	e := t.eng
	if e == nil {
		return false
	}
	r := &e.recs[t.idx]
	if r.gen != t.gen || r.stopped {
		// Fired (recycling bumped gen) or already stopped.
		return false
	}
	r.stopped = true
	e.pending--
	return true
}

// alloc takes a record from the free list, or extends the slab.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	if len(e.recs) == cap(e.recs) {
		// Double explicitly: the slab reaches hundreds of thousands
		// of records in a dispatch storm, and growslice's 1.25× policy
		// for large slices would copy (and zero) the records several
		// extra times on the way up.
		nc := cap(e.recs) * 2
		if nc < 1024 {
			nc = 1024
		}
		ns := make([]rec, len(e.recs), nc)
		copy(ns, e.recs)
		e.recs = ns
	}
	// Extend into already-zeroed slab capacity rather than appending a
	// composite literal: the latter re-writes the whole record per
	// fresh slot.
	n := len(e.recs)
	e.recs = e.recs[:n+1]
	return int32(n)
}

// recycle returns a consumed record to the free list; bumping gen
// invalidates any Timer still pointing at it.
func (e *Engine) recycle(idx int32) {
	r := &e.recs[idx]
	r.gen++
	r.fn = nil
	r.name = ""
	r.stopped = false
	e.free = append(e.free, idx)
}

// At schedules fn to run at time at. Times in the past are clamped to
// the current time, preserving FIFO order among same-time events. The
// name is used only for diagnostics.
func (e *Engine) At(at time.Time, name string, fn func()) Timer {
	if e.ref != nil {
		return e.refAt(at, name, fn)
	}
	return e.atRel(e.rel(at), name, fn)
}

// After schedules fn to run d from now. Negative durations are
// clamped to zero. Consecutive calls take consecutive seqs, so k
// After calls at one delay fire back to back in call order.
func (e *Engine) After(d time.Duration, name string, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	if e.ref != nil {
		return e.refAt(e.ref.now.Add(d), name, fn)
	}
	return e.atRel(e.now+int64(d), name, fn)
}

// atRel is At on the relative timeline, skipping the conversion.
func (e *Engine) atRel(rel int64, name string, fn func()) Timer {
	if fn == nil {
		panic("simclock: nil event callback")
	}
	if rel < e.now {
		rel = e.now
	}
	e.seq++
	e.scheduled++
	e.pending++
	idx := e.alloc()
	r := &e.recs[idx]
	r.at, r.seq, r.fn, r.name = rel, e.seq, fn, name
	if rel == e.now {
		// The largest seq yet, so the queue stays in seq order.
		e.nowq = append(e.nowq, idx)
	} else {
		e.wheelInsert(idx)
	}
	return Timer{eng: e, idx: idx, gen: r.gen}
}

// Step executes the single next event, advancing the clock to its
// scheduled time. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.ref != nil {
		return e.refStep()
	}
	return e.step(math.MaxInt64)
}

// step executes the single next event whose scheduled time is at most
// limit. Stopped records are recycled as the queue reaches them, and
// phantom advances (canceled records holding a slot's cached minimum)
// fire nothing; both loop.
func (e *Engine) step(limit int64) bool {
	for {
		if len(e.nowq) == 0 {
			if !e.advance(limit) {
				return false
			}
			continue
		}
		if e.now > limit {
			return false
		}
		idx := e.nowq[e.nowHead]
		e.nowHead++
		if e.nowHead == len(e.nowq) {
			e.nowq = e.nowq[:0]
			e.nowHead = 0
		}
		r := &e.recs[idx]
		fn, stopped := r.fn, r.stopped
		e.recycle(idx)
		if stopped {
			continue
		}
		e.processed++
		e.pending--
		fn()
		return true
	}
}

// Run executes events until the queue is empty. Most simulations end
// naturally when their workload completes and periodic controllers
// have been stopped; use RunUntil to bound runaway simulations.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with scheduled time <= deadline, then
// advances the clock to deadline. Events after the deadline remain
// queued.
func (e *Engine) RunUntil(deadline time.Time) {
	if e.ref != nil {
		e.refRunUntil(deadline)
		return
	}
	relD := e.rel(deadline)
	for e.step(relD) {
	}
	if e.now < relD {
		e.now = relD
	}
}

// refRunUntil is RunUntil on the reference core.
func (e *Engine) refRunUntil(deadline time.Time) {
	c := e.ref
	for {
		at, ok := e.refNextAt()
		if !ok || at.After(deadline) {
			break
		}
		e.refStep()
	}
	if c.now.Before(deadline) {
		c.now = deadline
	}
}

// RunFor runs the simulation for d of virtual time from now.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.Now().Add(d))
}

// RunWhile executes events while cond returns true and events remain.
// cond is checked before each event.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// --- far-horizon timing wheel ---

// The far queue is a hierarchical timing wheel rather than a heap: a
// heap pays O(log n) cache-missing sifts per event, and a dispatch
// storm holds hundreds of thousands of pending completions (a 4-ary
// heap in its place measured 18 % fewer dispatch-storm tasks/s). The
// wheel inserts in O(1) — pick the lowest level whose 256-slot window
// covers the event, append to the slot's bucket — and finds the next
// instant by scanning six 256-bit occupancy bitmaps.
//
// Level L slots are 2^(20+8L) ns wide (≈1.05 ms at level 0), so six
// levels cover any int64 horizon. A slot's bucket holds records in
// arbitrary order; exact firing order is restored at drain time:
// advance collects the records bearing the new instant and sorts them
// by seq — the engine's authoritative total order — in the
// same-instant queue. The observable schedule is therefore
// byte-identical to the heap's (time, seq) order; the differential
// suite pins this.
//
// A slot index is the absolute slot number masked to the level width.
// The insert rule (absolute slot within 256 of the clock's current
// slot) makes the mapping bijective, and a bucket can never mix
// events from different window laps: the clock only advances to the
// minimum pending instant, so a cursor never passes an occupied slot
// — it lands on it, and the slot is drained (level 0) or cascaded to
// lower levels (levels 1+) before the window moves on.
//
// Cancellation is lazy: Timer.Stop marks the record stopped and the
// wheel recycles it when its slot drains, or opportunistically when a
// minimum scan walks over it. Until then a canceled record costs only
// its slab slot: inserts and the minimum scan never walk slot lists.

const (
	wheelShift0 = 20 // level-0 slot width 2^20 ns ≈ 1.05 ms
	wheelBits   = 8  // slots per level = 256
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 6 // level 5 slots are ~36 years; covers any horizon
)

func wheelShift(level int) uint { return uint(wheelShift0 + wheelBits*level) }

// wheelLevel is one wheel: 256 slots plus an occupancy bitmap so the
// minimum scan touches only four words when the level is idle. Each
// slot heads an intrusive singly linked list threaded through
// rec.next, so insertion never allocates — the pointer lives in slab
// padding the record already paid for.
type wheelLevel struct {
	occ  [wheelSlots / 64]uint64
	head [wheelSlots]int32 // slab index of first record; -1 = empty
	// min caches the earliest at in each occupied slot (valid only
	// while the occupancy bit is set), so the minimum scan reads one
	// word per level instead of walking slot lists that can hold
	// hundreds of thousands of pending completions. Lazily canceled
	// records may leave the cache below the true live minimum; advance
	// tolerates that by firing nothing at the phantom instant and
	// letting the drain recycle them.
	min [wheelSlots]int64
}

func (lv *wheelLevel) empty() bool {
	return lv.occ[0]|lv.occ[1]|lv.occ[2]|lv.occ[3] == 0
}

// firstSlot returns the absolute slot number and bucket index of the
// first occupied slot in the window [cur, cur+256), scanning the
// bitmap circularly from the cursor.
func (lv *wheelLevel) firstSlot(cur int64) (int64, int, bool) {
	c := int(cur & wheelMask)
	w := c >> 6
	m := lv.occ[w] &^ ((1 << uint(c&63)) - 1)
	for i := 0; ; i++ {
		if m != 0 {
			b := w<<6 + bits.TrailingZeros64(m)
			return cur + int64((b-c)&wheelMask), b, true
		}
		if i == wheelSlots/64 {
			return 0, 0, false
		}
		w = (w + 1) & (wheelSlots/64 - 1)
		m = lv.occ[w]
		if i == wheelSlots/64-1 {
			// Wrapped back to the cursor word: only the low bits
			// (absolute slots cur+192..cur+255) remain unseen.
			m &= (1 << uint(c&63)) - 1
		}
	}
}

// wheelInsert places a record (at > now) into the lowest level whose
// window covers its instant.
func (e *Engine) wheelInsert(idx int32) {
	r := &e.recs[idx]
	for level := 0; ; level++ {
		sh := wheelShift(level)
		s := r.at >> sh
		if s-(e.now>>sh) >= wheelSlots {
			continue
		}
		b := int(s & wheelMask)
		lv := &e.wheel[level]
		if lv.head[b] == -1 {
			lv.min[b] = r.at
		} else if r.at < lv.min[b] {
			lv.min[b] = r.at
		}
		r.next = lv.head[b]
		lv.head[b] = idx
		lv.occ[b>>6] |= 1 << uint(b&63)
		e.wheelCnt++
		return
	}
}

// cleanSlot unlinks lazily canceled records from a slot's list,
// recycling them, recomputes the slot's cached minimum, and clears
// the occupancy bit if the slot empties. Returns the head of the
// compacted list.
func (e *Engine) cleanSlot(lv *wheelLevel, b int) int32 {
	h := lv.head[b]
	prev := int32(-1)
	min := int64(math.MaxInt64)
	for idx := h; idx != -1; {
		next := e.recs[idx].next
		if e.recs[idx].stopped {
			e.wheelCnt--
			e.recycle(idx)
			if prev == -1 {
				h = next
			} else {
				e.recs[prev].next = next
			}
		} else {
			prev = idx
			if e.recs[idx].at < min {
				min = e.recs[idx].at
			}
		}
		idx = next
	}
	lv.head[b] = h
	if h == -1 {
		lv.occ[b>>6] &^= 1 << uint(b&63)
	} else {
		lv.min[b] = min
	}
	return h
}

// wheelMin returns the earliest pending instant across all levels.
// Each level's first occupied slot necessarily holds that level's
// earliest record (slot order is coarse time order), so the global
// minimum is the min over at most six cached slot minimums — no list
// walk on the common path. A cached minimum below the clock can only
// come from records canceled and then lapped by the cursor; such a
// slot holds no live work earlier than the clock, so it is cleaned
// (walked once, canceled records recycled) and the level rescanned.
// The result may still be a canceled record's instant (a phantom);
// advance fires nothing there and the drain recycles the record.
func (e *Engine) wheelMin() (int64, bool) {
	if e.wheelCnt == 0 {
		return 0, false
	}
	best := int64(math.MaxInt64)
	found := false
	for level := 0; level < wheelLevels; level++ {
		lv := &e.wheel[level]
		cur := e.now >> wheelShift(level)
		for !lv.empty() {
			_, b, ok := lv.firstSlot(cur)
			if !ok {
				break
			}
			if lv.min[b] < e.now {
				if e.cleanSlot(lv, b) == -1 {
					continue // slot was all canceled; rescan the level
				}
			}
			if lv.min[b] < best {
				best = lv.min[b]
			}
			found = true
			break
		}
	}
	if !found {
		return 0, false
	}
	return best, true
}

// advance moves the clock to the next scheduled instant: cascade
// every higher-level slot the cursor landed on down the hierarchy,
// then drain the level-0 slot's records bearing the new timestamp into
// the (empty) same-instant queue in ascending seq order. Records in the level-0 slot scheduled later in the same
// ~1 ms slot stay put for a later advance. Candidate instants may be
// phantoms (lazily canceled records holding a slot's cached minimum);
// advance hops through them, recycling as it goes, until a real event
// fires. Returns false when nothing fires at or before limit; if the
// wheel emptied, the clock is restored so canceled far-future events
// never stretch a run's elapsed time (a phantom hop below limit can
// persist — RunUntil clamps the clock to its deadline afterwards).
func (e *Engine) advance(limit int64) bool {
	entry := e.now
	for {
		t, ok := e.wheelMin()
		if !ok {
			// Everything left was canceled and has now been recycled.
			// Phantom hops may have moved the clock; no event fired, so
			// restore it (the wheel is empty — no window to disturb).
			e.now = entry
			return false
		}
		if t > limit {
			return false
		}
		if e.advanceTo(t) {
			return true
		}
	}
}

// advanceTo moves the clock to t, cascades, and drains into the
// same-instant queue, which step only lets it fill when empty; it
// reports whether any record is now due (false means t was a phantom
// and the canceled records bearing it were recycled).
func (e *Engine) advanceTo(t int64) bool {
	e.now = t
	for level := wheelLevels - 1; level >= 1; level-- {
		lv := &e.wheel[level]
		cur := e.now >> wheelShift(level)
		b := int(cur & wheelMask)
		if lv.occ[b>>6]&(1<<uint(b&63)) == 0 {
			continue
		}
		h := lv.head[b]
		lv.head[b] = -1
		lv.occ[b>>6] &^= 1 << uint(b&63)
		for idx := h; idx != -1; {
			next := e.recs[idx].next
			e.wheelCnt--
			if e.recs[idx].stopped {
				e.recycle(idx)
			} else {
				// Re-lands at a lower level: the record shares this
				// level's slot with now, so its next-level slot is
				// within that window.
				e.wheelInsert(idx)
			}
			idx = next
		}
	}
	lv := &e.wheel[0]
	cur := e.now >> wheelShift(0)
	b := int(cur & wheelMask)
	if lv.occ[b>>6]&(1<<uint(b&63)) != 0 {
		keep := int32(-1)
		keepMin := int64(math.MaxInt64)
		for idx := lv.head[b]; idx != -1; {
			r := &e.recs[idx]
			next := r.next
			if r.stopped {
				e.wheelCnt--
				e.recycle(idx)
			} else if r.at == t {
				e.nowq = append(e.nowq, idx)
			} else {
				r.next = keep
				keep = idx
				if r.at < keepMin {
					keepMin = r.at
				}
			}
			idx = next
		}
		lv.head[b] = keep
		if keep == -1 {
			lv.occ[b>>6] &^= 1 << uint(b&63)
		} else {
			lv.min[b] = keepMin
		}
		e.wheelCnt -= len(e.nowq)
	}
	if len(e.nowq) > 1 {
		e.sortBySeq(e.nowq)
	}
	return len(e.nowq) > 0
}

// sortBySeq orders drained record indices by seq: insertion sort for
// the common handful, falling back to slices.SortFunc when an instant
// carries a wide fan-in such as a provisioning wave.
func (e *Engine) sortBySeq(s []int32) {
	if len(s) > 32 {
		slices.SortFunc(s, func(a, b int32) int {
			return cmp.Compare(e.recs[a].seq, e.recs[b].seq)
		})
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		key := e.recs[v].seq
		j := i - 1
		for j >= 0 && e.recs[s[j]].seq > key {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// --- tickers ---

// Ticker runs a callback periodically until stopped. The re-arm
// closure is bound once at construction and reused for every firing,
// so a steady ticker allocates nothing after Every returns.
type Ticker struct {
	e       *Engine
	period  time.Duration
	name    string
	fn      func()
	run     func() // persistent firing closure; see Every
	timer   Timer
	stopped bool
}

// Every schedules fn to run every period, with the first firing one
// period from now. It panics if period is not positive.
func (e *Engine) Every(period time.Duration, name string, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simclock: non-positive ticker period %v", period))
	}
	t := &Ticker{e: e, period: period, name: name, fn: fn}
	t.run = func() {
		if t.stopped {
			return
		}
		fired := t.timer
		t.fn()
		// A Reset inside fn has already armed the next firing.
		if !t.stopped && t.timer == fired {
			t.timer = t.e.After(t.period, t.name, t.run)
		}
	}
	t.timer = e.After(period, name, t.run)
	return t
}

// Stop cancels the ticker; no further firings occur.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.timer.Stop()
}

// Reset changes the ticker period and restarts the wait from now.
func (t *Ticker) Reset(period time.Duration) {
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
