// Package netsim models the data-transfer behaviour of a
// master-worker HTC deployment: a shared egress link at the master
// whose bandwidth is divided max-min fairly among concurrent
// transfers, optionally limited per transfer by the receiver's NIC.
//
// This reproduces the trade-off of the paper's §III-A/§IV-A: a
// fine-grained configuration with many workers moves more copies of
// the shared input across the same egress link, lowering per-transfer
// bandwidth and stretching the workload, while a coarse-grained
// configuration with few node-sized workers transfers fewer copies at
// higher per-transfer rates.
//
// The link is simulated in processor-sharing virtual time: because
// every active transfer always receives the same rate (the fair share
// and the per-transfer cap are both uniform), a single cumulative
// service counter tracks per-transfer progress for all of them.
// A transfer that starts at credit s and moves S megabytes completes
// when the counter reaches s+S, so a min-heap keyed on that finish
// credit yields the next completion in O(log n) while advancing the
// clock is O(1) regardless of how many transfers are in flight.
// Transfers live in a link-owned slab and callers hold generation-
// checked value handles, so a transfer costs no allocation. The
// original walk-everything implementation is retained in reference.go
// (NewReferenceLink) as a differential-testing oracle.
package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"hta/internal/simclock"
)

// Link is a shared egress link simulated on a discrete-event engine.
// All methods must be called from engine callbacks (single-threaded).
type Link struct {
	eng         *simclock.Engine
	capacity    float64 // MB/s
	perTransfer float64 // MB/s cap per transfer; 0 = unlimited
	contention  float64 // per-extra-stream efficiency factor; 1 = none

	reference bool // route through the retained O(n)-per-event model

	// Transfers live in a slab addressed by index; a transfer's slot
	// returns to the free list the moment it completes or is canceled,
	// and its generation bump invalidates every handle to it.
	trs    []transfer
	free   []int32
	nextID int

	timer   simclock.Timer
	onTimer func() // the completion timer's callback, bound once
	last    time.Time

	// Virtual-time state (indexed mode). vt is the cumulative
	// per-transfer service credit in MB: every active transfer has
	// moved vt − tr.start megabytes. vtRate is the credit growth rate,
	// recomputed only when the active set or the capacity model
	// changes.
	vt       float64
	vtRate   float64
	byFinish []int32 // 4-ary min-heap of slab indices; see less

	// Reference-mode state: active slab indices in ascending-id order
	// so float accumulation is deterministic.
	order []int32

	finished []int32 // scratch for completion batches

	// statistics
	deliveredMB float64
	busy        time.Duration
	started     int
	completed   int
}

// Transfer is a handle to one transfer: its slot in the link's slab
// and the slot's generation when the transfer started. Handles are
// values, like simclock.Timer. Once the transfer completes or is
// canceled its slot may carry a newer transfer, but the generation no
// longer matches, so a stale handle's Cancel and Remaining touch
// nothing. The zero Transfer is stale from the start.
type Transfer struct {
	idx int32
	gen uint32
}

// transfer is one in-flight data movement, in the link's slab.
type transfer struct {
	id        int
	remaining float64 // MB; reference mode only
	rate      float64 // MB/s; reference mode only
	start     float64 // vt when the transfer started (indexed mode)
	finish    float64 // start + size: vt at which the transfer completes
	done      func(any)
	arg       any
	pos       int32  // index in byFinish (indexed mode)
	gen       uint32 // bumped on release; never 0 for a slot in use
}

// alloc takes a transfer slot from the free list, or extends the slab.
func (l *Link) alloc() int32 {
	if n := len(l.free); n > 0 {
		idx := l.free[n-1]
		l.free = l.free[:n-1]
		return idx
	}
	l.trs = append(l.trs, transfer{gen: 1})
	return int32(len(l.trs) - 1)
}

// release returns a finished or canceled transfer's slot to the free
// list. The generation bump makes every handle to it stale; dropping
// the callback and its argument lets the collector have them.
func (l *Link) release(idx int32) {
	tr := &l.trs[idx]
	tr.done, tr.arg = nil, nil
	if tr.gen++; tr.gen == 0 {
		tr.gen = 1
	}
	l.free = append(l.free, idx)
}

// lookup returns the transfer a handle names, or nil for a stale one.
func (l *Link) lookup(h Transfer) *transfer {
	if h.gen == 0 || int(h.idx) >= len(l.trs) {
		return nil
	}
	if tr := &l.trs[h.idx]; tr.gen == h.gen {
		return tr
	}
	return nil
}

// byFinish is a 4-ary min-heap of active transfers keyed on
// (finish, id); the id tie-break pops simultaneous completions
// deterministically. It is hand-rolled rather than container/heap
// because popping from a 10k-wide heap is the hot path of the scale
// benchmark: the 4-ary layout halves the sift-down depth and the
// direct methods avoid interface dispatch. less orders two slab
// indices by that key.
func (l *Link) less(a, b int32) bool {
	ta, tb := &l.trs[a], &l.trs[b]
	if ta.finish != tb.finish {
		return ta.finish < tb.finish
	}
	return ta.id < tb.id
}

func (l *Link) siftUp(i int) {
	h := l.byFinish
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !l.less(x, h[p]) {
			break
		}
		h[i] = h[p]
		l.trs[h[i]].pos = int32(i)
		i = p
	}
	h[i] = x
	l.trs[x].pos = int32(i)
}

func (l *Link) siftDown(i int) {
	h := l.byFinish
	n := len(h)
	x := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if l.less(h[c], h[m]) {
				m = c
			}
		}
		if !l.less(h[m], x) {
			break
		}
		h[i] = h[m]
		l.trs[h[i]].pos = int32(i)
		i = m
	}
	h[i] = x
	l.trs[x].pos = int32(i)
}

func (l *Link) push(idx int32) {
	l.byFinish = append(l.byFinish, idx)
	l.siftUp(len(l.byFinish) - 1)
}

// removeAt takes the transfer at heap position i out of the heap.
func (l *Link) removeAt(i int) {
	h := l.byFinish
	n := len(h) - 1
	h[i] = h[n]
	l.byFinish = h[:n]
	if i < n {
		l.siftDown(i)
		l.siftUp(i)
	}
}

const completionEpsilonMB = 1e-9

// NewLink creates a link with the given capacity in MB/s and an
// optional per-transfer rate cap (0 disables the cap).
func NewLink(eng *simclock.Engine, capacityMBps, perTransferMBps float64) *Link {
	return newLink(eng, capacityMBps, perTransferMBps, false)
}

func newLink(eng *simclock.Engine, capacityMBps, perTransferMBps float64, reference bool) *Link {
	if capacityMBps <= 0 {
		panic(fmt.Sprintf("netsim: non-positive link capacity %v", capacityMBps))
	}
	if perTransferMBps < 0 {
		panic(fmt.Sprintf("netsim: negative per-transfer cap %v", perTransferMBps))
	}
	l := &Link{
		eng:         eng,
		capacity:    capacityMBps,
		perTransfer: perTransferMBps,
		contention:  1,
		reference:   reference,
		last:        eng.Now(),
	}
	l.onTimer = func() {
		l.advance()
		l.reschedule()
	}
	return l
}

// SetContention sets the per-extra-stream efficiency factor in
// (0, 1]: with n concurrent transfers the aggregate effective
// capacity is capacity × factor^(n−1), modelling the TCP contention
// and protocol overhead that makes many parallel streams deliver
// less total bandwidth than a few — the effect behind the paper's
// Fig. 4 fine- vs coarse-grained bandwidth gap. 1 disables the
// model.
func (l *Link) SetContention(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("netsim: contention factor %v outside (0, 1]", factor))
	}
	l.advance()
	l.contention = factor
	l.reschedule()
}

// effectiveCapacity returns the aggregate capacity available to n
// concurrent transfers.
func (l *Link) effectiveCapacity(n int) float64 {
	if l.contention == 1 || n <= 1 {
		return l.capacity
	}
	return l.capacity * math.Pow(l.contention, float64(n-1))
}

// allocRate returns the uniform per-transfer rate with n transfers in
// flight. Because the fair share and the cap are both uniform, max-min
// fairness degenerates into a single regime switch at the crossover
// n* = effectiveCapacity(n)/perTransfer: below n* every transfer is
// cap-limited, above it everyone gets the equal share.
func (l *Link) allocRate(n int) float64 {
	share := l.effectiveCapacity(n) / float64(n)
	if l.perTransfer > 0 && l.perTransfer < share {
		return l.perTransfer
	}
	return share
}

// Active returns the number of in-flight transfers.
func (l *Link) Active() int {
	if l.reference {
		return len(l.order)
	}
	return len(l.byFinish)
}

// Start begins a transfer of sizeMB and, when done is non-nil, has
// the engine call done(arg) when it completes. Zero-size transfers
// complete on the next event. A done bound once and a pointer-shaped
// arg make a transfer's whole life allocation-free once the slab has
// room.
func (l *Link) Start(sizeMB float64, done func(any), arg any) Transfer {
	if sizeMB < 0 || math.IsNaN(sizeMB) || math.IsInf(sizeMB, 0) {
		panic(fmt.Sprintf("netsim: invalid transfer size %v", sizeMB))
	}
	l.advance()
	l.nextID++
	idx := l.alloc()
	tr := &l.trs[idx]
	tr.id, tr.done, tr.arg = l.nextID, done, arg
	h := Transfer{idx: idx, gen: tr.gen}
	l.started++
	if l.reference {
		// The ordered index list exists only in reference mode; the
		// indexed path tracks membership through the heap.
		tr.remaining, tr.rate = sizeMB, 0
		l.order = append(l.order, idx) // ids ascend, so order stays sorted
	} else {
		tr.start = l.vt
		tr.finish = l.vt + sizeMB
		l.push(idx)
	}
	l.reschedule()
	return h
}

// Cancel aborts an in-flight transfer without invoking its callback.
// It reports whether the transfer was still active; a stale handle
// (the transfer completed or was canceled) reports false.
func (l *Link) Cancel(h Transfer) bool {
	tr := l.lookup(h)
	if tr == nil {
		return false
	}
	l.advance()
	if l.reference {
		l.refRemove(h.idx)
	} else {
		l.removeAt(int(tr.pos))
		// vt can overshoot finish by at most one nanosecond's worth of
		// credit (the completion timer rounds up to whole nanoseconds);
		// refund the overcharge.
		if l.vt > tr.finish {
			l.deliveredMB -= l.vt - tr.finish
		}
	}
	l.release(h.idx)
	l.reschedule()
	return true
}

// Remaining returns the megabytes the transfer has left to move: 0
// once it completed or was canceled. It advances link accounting to
// the current time but never re-arms timers: reads are side-effect
// free with respect to scheduling.
func (l *Link) Remaining(h Transfer) float64 {
	l.advance()
	tr := l.lookup(h)
	if tr == nil {
		return 0
	}
	if l.reference {
		return tr.remaining
	}
	if rem := tr.finish - l.vt; rem > 0 {
		return rem
	}
	return 0
}

// advance applies progress for the time since the last update: O(1).
// Every active transfer moves vtRate×dt megabytes of credit, so the
// aggregate delivery is n times that.
func (l *Link) advance() {
	if l.reference {
		l.refAdvance()
		return
	}
	now := l.eng.Now()
	dt := now.Sub(l.last).Seconds()
	l.last = now
	n := len(l.byFinish)
	if dt <= 0 || n == 0 {
		return
	}
	l.busy += time.Duration(dt * float64(time.Second))
	credit := l.vtRate * dt
	l.vt += credit
	l.deliveredMB += float64(n) * credit
}

// reschedule pops completed transfers, recomputes the uniform rate and
// arms the timer for the next completion: O(log n) per completion,
// O(1) otherwise.
func (l *Link) reschedule() {
	if l.reference {
		l.refReschedule()
		return
	}
	l.timer.Stop()
	finished := l.finished[:0]
	for len(l.byFinish) > 0 {
		top := l.byFinish[0]
		finish := l.trs[top].finish
		if finish-l.vt > completionEpsilonMB {
			break
		}
		l.removeAt(0)
		if l.vt > finish {
			// Refund the sub-nanosecond overcharge past this
			// transfer's finish credit, keeping delivered == size.
			l.deliveredMB -= l.vt - finish
		}
		l.completed++
		finished = append(finished, top)
	}
	l.completeBatch(finished)
	l.finished = finished[:0]
	n := len(l.byFinish)
	if n == 0 {
		l.vtRate = 0
		return
	}
	l.vtRate = l.allocRate(n)
	if l.vtRate <= 0 {
		return
	}
	d, ok := etaDuration((l.trs[l.byFinish[0]].finish - l.vt) / l.vtRate)
	if !ok {
		return
	}
	l.timer = l.eng.After(d, "netsim-completion", l.onTimer)
}

// completeBatch schedules the completed transfers' callbacks as
// zero-delay events in deterministic ascending-id order, then releases
// their slots. Callbacks run after the current event's bookkeeping, so
// they can start new transfers freely.
func (l *Link) completeBatch(finished []int32) {
	// slices.SortFunc instead of sort.Slice: the closure-over-slice
	// form boxed the slice header and allocated on every completion
	// wave; the generic sort runs allocation-free (asserted by
	// TestCompleteBatchAllocs).
	slices.SortFunc(finished, func(a, b int32) int { return cmp.Compare(l.trs[a].id, l.trs[b].id) })
	for _, idx := range finished {
		if tr := &l.trs[idx]; tr.done != nil {
			l.eng.AfterArg(0, "netsim-transfer-done", tr.done, tr.arg)
		}
		l.release(idx)
	}
}

// maxEta is the horizon beyond which a completion timer is not armed:
// the link is effectively stalled (nano-rates from compounded
// contention) and the next rate change will re-arm.
// The cap matters for accounting, not semantics — every experiment's
// transfers complete in seconds, but a fuzzed chain of centuries-long
// waits would overflow the link's int64-nanosecond busy counter.
const maxEta = 90 * 24 * time.Hour

// etaDuration converts an eta in seconds to a timer duration, rounding
// up to a whole nanosecond so the timer always makes progress; firing
// exactly at (or just after) completion leaves a remainder below the
// completion epsilon. Etas beyond maxEta report false: the link is
// effectively stalled and the timer stays unarmed until rates change.
func etaDuration(eta float64) (time.Duration, bool) {
	ns := math.Ceil(eta * float64(time.Second))
	if ns >= float64(maxEta) {
		return 0, false
	}
	d := time.Duration(ns)
	if d <= 0 {
		d = 1
	}
	return d, true
}

// Stats is a snapshot of link accounting.
type Stats struct {
	DeliveredMB  float64       // total megabytes moved
	BusyTime     time.Duration // time with >= 1 active transfer
	Started      int
	Completed    int
	AvgBandwidth float64 // MB/s averaged over busy time
}

// Stats returns accumulated statistics up to the current time. Like
// Remaining, it advances accounting but never touches timers.
func (l *Link) Stats() Stats {
	l.advance()
	s := Stats{
		DeliveredMB: l.deliveredMB,
		BusyTime:    l.busy,
		Started:     l.started,
		Completed:   l.completed,
	}
	if l.busy > 0 {
		s.AvgBandwidth = l.deliveredMB / l.busy.Seconds()
	}
	return s
}
