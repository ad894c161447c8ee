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
// clock is O(1) regardless of how many transfers are in flight. The
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

	transfers map[int]*Transfer // active transfers by id (reference mode)
	nextID    int
	timer     simclock.Timer
	onTimer   func() // the completion timer's callback, bound once
	last      time.Time

	// Virtual-time state (indexed mode). vt is the cumulative
	// per-transfer service credit in MB: every active transfer has
	// moved vt − tr.start megabytes. vtRate is the credit growth rate,
	// recomputed only when the active set or the capacity model
	// changes.
	vt       float64
	vtRate   float64
	byFinish finishHeap

	// Reference-mode state: active transfers in ascending-id order so
	// float accumulation is deterministic (map iteration is not).
	order []*Transfer

	finished []*Transfer // scratch for completion batches

	// statistics
	deliveredMB float64
	busy        time.Duration
	started     int
	completed   int
}

// Transfer is one in-flight data movement.
type Transfer struct {
	link      *Link
	id        int
	remaining float64 // MB; live in reference mode, materialized on exit in indexed mode
	rate      float64 // MB/s; live in reference mode, stamped on exit in indexed mode
	begun     time.Time
	done      func()
	canceled  bool

	start  float64 // vt when the transfer started (indexed mode)
	finish float64 // start + size: vt at which the transfer completes
	pos    int     // index in byFinish, -1 when not enqueued
}

// finishHeap is a 4-ary min-heap of active transfers keyed on
// (finish, id); the id tie-break pops simultaneous completions
// deterministically. It is hand-rolled rather than container/heap
// because popping from a 10k-wide heap is the hot path of the scale
// benchmark: the 4-ary layout halves the sift-down depth and the
// direct methods avoid interface dispatch.
type finishHeap []*Transfer

func transferLess(a, b *Transfer) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.id < b.id
}

func (h finishHeap) siftUp(i int) {
	tr := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !transferLess(tr, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = i
		i = p
	}
	h[i] = tr
	tr.pos = i
}

func (h finishHeap) siftDown(i int) {
	n := len(h)
	tr := h[i]
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
			if transferLess(h[c], h[m]) {
				m = c
			}
		}
		if !transferLess(h[m], tr) {
			break
		}
		h[i] = h[m]
		h[i].pos = i
		i = m
	}
	h[i] = tr
	tr.pos = i
}

func (h *finishHeap) push(tr *Transfer) {
	*h = append(*h, tr)
	tr.pos = len(*h) - 1
	h.siftUp(tr.pos)
}

func (h *finishHeap) popMin() *Transfer {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		(*h).siftDown(0)
	}
	top.pos = -1
	return top
}

func (h *finishHeap) removeAt(i int) {
	old := *h
	tr := old[i]
	n := len(old) - 1
	old[i] = old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		(*h).siftDown(i)
		(*h).siftUp(i)
	}
	tr.pos = -1
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
		transfers:   make(map[int]*Transfer),
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
		return len(l.transfers)
	}
	return len(l.byFinish)
}

// Start begins a transfer of sizeMB and calls done (if non-nil) when
// it completes. Zero-size transfers complete on the next event.
func (l *Link) Start(sizeMB float64, done func()) *Transfer {
	if sizeMB < 0 || math.IsNaN(sizeMB) || math.IsInf(sizeMB, 0) {
		panic(fmt.Sprintf("netsim: invalid transfer size %v", sizeMB))
	}
	l.advance()
	l.nextID++
	tr := &Transfer{
		link:      l,
		id:        l.nextID,
		remaining: sizeMB,
		begun:     l.eng.Now(),
		done:      done,
		pos:       -1,
	}
	l.started++
	if l.reference {
		// The membership map and ordered slice exist only in reference
		// mode; the indexed path tracks membership through tr.pos.
		l.transfers[tr.id] = tr
		l.order = append(l.order, tr) // ids ascend, so order stays sorted
	} else {
		tr.start = l.vt
		tr.finish = l.vt + sizeMB
		l.byFinish.push(tr)
	}
	l.reschedule()
	return tr
}

// Cancel aborts an in-flight transfer without invoking its callback.
// It reports whether the transfer was still active.
func (tr *Transfer) Cancel() bool {
	if tr.canceled {
		return false
	}
	l := tr.link
	if l.reference {
		if _, ok := l.transfers[tr.id]; !ok {
			return false
		}
	} else if tr.pos < 0 {
		return false
	}
	l.advance()
	tr.canceled = true
	if l.reference {
		delete(l.transfers, tr.id)
		l.refRemove(tr)
	} else {
		l.byFinish.removeAt(tr.pos)
		// Materialize progress. vt can overshoot finish by at most one
		// nanosecond's worth of credit (the completion timer rounds up
		// to whole nanoseconds); refund the overcharge.
		if l.vt > tr.finish {
			l.deliveredMB -= l.vt - tr.finish
			tr.remaining = 0
		} else {
			tr.remaining = tr.finish - l.vt
		}
		tr.rate = l.vtRate
	}
	l.reschedule()
	return true
}

// Remaining returns the megabytes left to move. It advances link
// accounting to the current time but never re-arms timers: reads are
// side-effect free with respect to scheduling.
func (tr *Transfer) Remaining() float64 {
	l := tr.link
	l.advance()
	if l.reference || tr.pos < 0 {
		return tr.remaining
	}
	if rem := tr.finish - l.vt; rem > 0 {
		return rem
	}
	return 0
}

// Rate returns the transfer's current bandwidth allocation in MB/s.
func (tr *Transfer) Rate() float64 {
	l := tr.link
	if !l.reference && tr.pos >= 0 {
		return l.vtRate
	}
	return tr.rate
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
		if top.finish-l.vt > completionEpsilonMB {
			break
		}
		l.byFinish.popMin()
		if l.vt > top.finish {
			// Refund the sub-nanosecond overcharge past this
			// transfer's finish credit, keeping delivered == size.
			l.deliveredMB -= l.vt - top.finish
		}
		top.remaining = 0
		top.rate = l.vtRate
		l.completed++
		finished = append(finished, top)
	}
	l.completeBatch(finished)
	for i := range finished {
		finished[i] = nil
	}
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
	d, ok := etaDuration((l.byFinish[0].finish - l.vt) / l.vtRate)
	if !ok {
		return
	}
	l.timer = l.eng.After(d, "netsim-completion", l.onTimer)
}

// completeBatch schedules completion callbacks as zero-delay events
// in deterministic ascending-id order. Callbacks run after the
// current event's bookkeeping, so they can start new transfers
// freely.
func (l *Link) completeBatch(finished []*Transfer) {
	if len(finished) == 0 {
		return
	}
	// slices.SortFunc instead of sort.Slice: the closure-over-slice
	// form boxed the slice header and allocated on every completion
	// wave; the generic sort runs allocation-free (asserted by
	// TestCompleteBatchAllocs).
	slices.SortFunc(finished, func(a, b *Transfer) int { return cmp.Compare(a.id, b.id) })
	for _, tr := range finished {
		if tr.done != nil {
			l.eng.After(0, "netsim-transfer-done", tr.done)
		}
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
