// This file retains the pre-virtual-time link implementation: on
// every start, cancel, completion and capacity change it walks all
// in-flight transfers to apply progress and re-derive rates — O(n)
// per event, O(n²) per run. It is kept, like kubesim/reference.go and
// core/reference.go, as the differential-testing oracle for the
// indexed implementation in netsim.go: NewReferenceLink builds a link
// routed through these methods, and the differential and fuzz suites
// assert both produce the same completions, callback order and stats.
//
// Two deliberate deviations from the historical code, shared with the
// indexed path so the oracle stays comparable: transfers iterate in
// ascending-id order (map iteration made float accumulation
// nondeterministic) and reads (Remaining/Stats) only advance
// accounting instead of stopping and re-arming the completion timer.
package netsim

import (
	"math"
	"time"

	"hta/internal/simclock"
)

// NewReferenceLink creates a link backed by the retained
// walk-everything implementation. Semantics match NewLink; only the
// algorithmic complexity differs.
func NewReferenceLink(eng *simclock.Engine, capacityMBps, perTransferMBps float64) *Link {
	return newLink(eng, capacityMBps, perTransferMBps, true)
}

// refAdvance applies progress for the time since the last update by
// walking every in-flight transfer.
func (l *Link) refAdvance() {
	now := l.eng.Now()
	dt := now.Sub(l.last).Seconds()
	l.last = now
	if dt <= 0 || len(l.order) == 0 {
		return
	}
	l.busy += time.Duration(dt * float64(time.Second))
	for _, tr := range l.order {
		moved := tr.rate * dt
		if moved > tr.remaining {
			moved = tr.remaining
		}
		tr.remaining -= moved
		l.deliveredMB += moved
	}
}

// refAllocate computes the max-min fair rate for every active
// transfer: each transfer is entitled to an equal share of the
// remaining capacity, transfers capped below their share keep their
// cap and the freed capacity is redistributed among the rest.
func (l *Link) refAllocate() {
	n := len(l.order)
	if n == 0 {
		return
	}
	cap := l.effectiveCapacity(n)
	if l.perTransfer == 0 {
		share := cap / float64(n)
		for _, tr := range l.order {
			tr.rate = share
		}
		return
	}
	remainingCap := cap
	unset := make([]*Transfer, 0, n)
	unset = append(unset, l.order...)
	for len(unset) > 0 {
		share := remainingCap / float64(len(unset))
		if l.perTransfer >= share {
			// Nobody is capped below the equal share.
			for _, tr := range unset {
				tr.rate = share
			}
			return
		}
		// Every remaining transfer is capped (uniform cap), so they
		// all take the cap.
		for _, tr := range unset {
			tr.rate = l.perTransfer
		}
		return
	}
}

// refReschedule completes finished transfers, re-rates the rest and
// arms the timer for the soonest completion, walking the full active
// set.
func (l *Link) refReschedule() {
	l.timer.Stop()
	finished := l.finished[:0]
	keep := l.order[:0]
	for _, tr := range l.order {
		if tr.remaining <= completionEpsilonMB {
			delete(l.transfers, tr.id)
			l.completed++
			finished = append(finished, tr)
		} else {
			keep = append(keep, tr)
		}
	}
	for i := len(keep); i < len(l.order); i++ {
		l.order[i] = nil
	}
	l.order = keep
	l.completeBatch(finished)
	for i := range finished {
		finished[i] = nil
	}
	l.finished = finished[:0]
	if len(l.order) == 0 {
		return
	}
	l.refAllocate()
	soonest := math.Inf(1)
	for _, tr := range l.order {
		if tr.rate <= 0 {
			continue
		}
		eta := tr.remaining / tr.rate
		if eta < soonest {
			soonest = eta
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	d, ok := etaDuration(soonest)
	if !ok {
		return
	}
	l.timer = l.eng.After(d, "netsim-completion", l.onTimer)
}

// refRemove drops a canceled transfer from the ordered active set.
func (l *Link) refRemove(tr *Transfer) {
	for i, o := range l.order {
		if o == tr {
			copy(l.order[i:], l.order[i+1:])
			l.order[len(l.order)-1] = nil
			l.order = l.order[:len(l.order)-1]
			return
		}
	}
}
