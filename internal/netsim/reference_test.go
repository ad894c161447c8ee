package netsim

import (
	"fmt"
	"math"
	"time"

	"hta/internal/simclock"
)

// This file keeps the pre-virtual-time link as refLink, the oracle of
// the differential and fuzz suites: on every start, cancel, completion
// and capacity change it walks all in-flight transfers to apply
// progress and re-derive rates — O(n) per event, O(n²) per run. It has
// its own slab, free list and handles, so Link shares nothing with it
// but the package's pure helpers (etaDuration, the completion epsilon)
// and the Transfer and Stats types.
//
// Two deliberate deviations from the historical code, shared with Link
// so the oracle stays comparable: transfers iterate in ascending-id
// order (map iteration made float accumulation nondeterministic) and
// reads (Remaining/Stats) only advance accounting instead of stopping
// and re-arming the completion timer.

// link is the surface the differential, property and bench tests
// drive: *Link or the test-local *refLink.
type link interface {
	Start(sizeMB float64, done func(any), arg any) Transfer
	Cancel(h Transfer) bool
	Remaining(h Transfer) float64
	SetContention(factor float64)
	Stats() Stats
	Active() int
}

// linkMaker builds one implementation of link.
type linkMaker func(eng *simclock.Engine, capacityMBps, perTransferMBps float64) link

func newIndexedLink(eng *simclock.Engine, capacityMBps, perTransferMBps float64) link {
	return NewLink(eng, capacityMBps, perTransferMBps)
}

func newRefLink(eng *simclock.Engine, capacityMBps, perTransferMBps float64) link {
	if capacityMBps <= 0 || perTransferMBps < 0 {
		panic(fmt.Sprintf("netsim: invalid reference link %v/%v", capacityMBps, perTransferMBps))
	}
	l := &refLink{
		eng:         eng,
		capacity:    capacityMBps,
		perTransfer: perTransferMBps,
		contention:  1,
		last:        eng.Now(),
	}
	l.onTimer = func() {
		l.advance()
		l.reschedule()
	}
	return l
}

// refTransfer is one in-flight transfer of the reference link.
type refTransfer struct {
	remaining float64 // MB
	rate      float64 // MB/s
	done      func(any)
	arg       any
	gen       uint32 // bumped on release; never 0 for a slot in use
}

type refLink struct {
	eng         *simclock.Engine
	capacity    float64
	perTransfer float64
	contention  float64

	trs      []refTransfer
	free     []int32
	order    []int32 // active slots in start order
	finished []int32

	timer   simclock.Timer
	onTimer func()
	last    time.Time

	deliveredMB float64
	busy        time.Duration
	started     int
	completed   int
}

func (l *refLink) alloc() int32 {
	if n := len(l.free); n > 0 {
		idx := l.free[n-1]
		l.free = l.free[:n-1]
		return idx
	}
	l.trs = append(l.trs, refTransfer{gen: 1})
	return int32(len(l.trs) - 1)
}

func (l *refLink) release(idx int32) {
	tr := &l.trs[idx]
	tr.done, tr.arg = nil, nil
	if tr.gen++; tr.gen == 0 {
		tr.gen = 1
	}
	l.free = append(l.free, idx)
}

func (l *refLink) lookup(h Transfer) *refTransfer {
	if h.gen == 0 || int(h.idx) >= len(l.trs) || l.trs[h.idx].gen != h.gen {
		return nil
	}
	return &l.trs[h.idx]
}

func (l *refLink) Active() int { return len(l.order) }

func (l *refLink) SetContention(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("netsim: contention factor %v outside (0, 1]", factor))
	}
	l.advance()
	l.contention = factor
	l.reschedule()
}

func (l *refLink) effectiveCapacity(n int) float64 {
	if l.contention == 1 || n <= 1 {
		return l.capacity
	}
	return l.capacity * math.Pow(l.contention, float64(n-1))
}

func (l *refLink) Start(sizeMB float64, done func(any), arg any) Transfer {
	if sizeMB < 0 || math.IsNaN(sizeMB) || math.IsInf(sizeMB, 0) {
		panic(fmt.Sprintf("netsim: invalid transfer size %v", sizeMB))
	}
	l.advance()
	idx := l.alloc()
	tr := &l.trs[idx]
	tr.remaining, tr.rate, tr.done, tr.arg = sizeMB, 0, done, arg
	h := Transfer{idx: idx, gen: tr.gen}
	l.started++
	l.order = append(l.order, idx) // start order: the completion tie-break
	l.reschedule()
	return h
}

func (l *refLink) Cancel(h Transfer) bool {
	if l.lookup(h) == nil {
		return false
	}
	l.advance()
	for i, o := range l.order {
		if o == h.idx {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	l.release(h.idx)
	l.reschedule()
	return true
}

func (l *refLink) Remaining(h Transfer) float64 {
	l.advance()
	if tr := l.lookup(h); tr != nil {
		return tr.remaining
	}
	return 0
}

// advance applies progress for the time since the last update by
// walking every in-flight transfer.
func (l *refLink) advance() {
	now := l.eng.Now()
	dt := now.Sub(l.last).Seconds()
	l.last = now
	if dt <= 0 || len(l.order) == 0 {
		return
	}
	l.busy += time.Duration(dt * float64(time.Second))
	for _, idx := range l.order {
		tr := &l.trs[idx]
		moved := min(tr.rate*dt, tr.remaining)
		tr.remaining -= moved
		l.deliveredMB += moved
	}
}

// allocate computes the max-min fair rate of every active transfer:
// an equal share of the effective capacity, or the per-transfer cap
// when that binds (the cap is uniform, so it binds for all or none).
func (l *refLink) allocate() {
	n := len(l.order)
	share := l.effectiveCapacity(n) / float64(n)
	if l.perTransfer > 0 && l.perTransfer < share {
		share = l.perTransfer
	}
	for _, idx := range l.order {
		l.trs[idx].rate = share
	}
}

// reschedule completes finished transfers, re-rates the rest and arms
// the timer for the soonest completion, walking the full active set.
func (l *refLink) reschedule() {
	l.timer.Stop()
	finished := l.finished[:0]
	keep := l.order[:0]
	for _, idx := range l.order {
		if l.trs[idx].remaining <= completionEpsilonMB {
			l.completed++
			finished = append(finished, idx)
		} else {
			keep = append(keep, idx)
		}
	}
	l.order = keep
	// finished is in start order, the order completions fire in.
	for _, idx := range finished {
		if tr := &l.trs[idx]; tr.done != nil {
			l.eng.AfterArg(0, "netsim-transfer-done", tr.done, tr.arg)
		}
		l.release(idx)
	}
	l.finished = finished[:0]
	if len(l.order) == 0 {
		return
	}
	l.allocate()
	soonest := math.Inf(1)
	for _, idx := range l.order {
		if tr := &l.trs[idx]; tr.rate > 0 {
			soonest = min(soonest, tr.remaining/tr.rate)
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	if d, ok := etaDuration(soonest); ok {
		l.timer = l.eng.After(d, "netsim-completion", l.onTimer)
	}
}

func (l *refLink) Stats() Stats {
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
