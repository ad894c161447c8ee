package core

import (
	"container/heap"
	"time"

	"hta/internal/resources"
)

// This file keeps the original per-task Algorithm 1 evaluator verbatim,
// as a test oracle. It is the behavioural reference for the grouped
// planner in estimate.go: differential tests assert the two return
// identical Decisions on randomized inputs, and the benchmarks use it
// as the naive baseline. Its cost is O(events × waiting × workers) — every
// completion event rescans the whole waiting queue against every pool.

type eventQueue []completionEvent

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(completionEvent)) }
func (q *eventQueue) Pop() any          { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// referenceEstimateScale is the naive implementation of the paper's
// Algorithm 1. EstimateScale returns byte-identical Decisions.
func referenceEstimateScale(in EstimateInput) Decision {
	if in.DefaultCycle <= 0 {
		in.DefaultCycle = 30 * time.Second
	}
	// Per-worker simulated free capacity, discounted by the caller's
	// preemption hedge. Vector.Scale is integer-only, so components
	// scale individually.
	pools := make([]resources.Vector, len(in.Workers))
	index := make(map[string]int, len(in.Workers))
	for i, w := range in.Workers {
		pools[i] = discountCapacity(w.Capacity, in.CapacityDiscount)
		index[w.ID] = i
	}

	events := &eventQueue{}
	var maxRemaining time.Duration
	for _, t := range in.Running {
		wi, ok := index[t.WorkerID]
		if !ok {
			// Task on a draining or unknown worker: its capacity is
			// not part of the active pool.
			continue
		}
		pools[wi] = pools[wi].Sub(t.Allocated)
		rem, known := remainingTime(in, t)
		if !known || rem > in.InitTime {
			if rem > maxRemaining {
				maxRemaining = rem
			}
			continue // holds its allocation past the window
		}
		heap.Push(events, completionEvent{at: rem, worker: wi, alloc: t.Allocated})
	}

	// Waiting tasks in queue order with their predicted sizes.
	type pendingTask struct {
		res    resources.Vector
		known  bool
		exec   time.Duration
		hasExc bool
		placed bool
	}
	waiting := make([]pendingTask, len(in.Waiting))
	for i, t := range in.Waiting {
		pt := pendingTask{}
		if !t.Resources.IsZero() {
			pt.res, pt.known = t.Resources, true
		} else if in.Estimator != nil {
			if v, ok := in.Estimator.EstimateResources(t.Category); ok && !v.IsZero() {
				pt.res, pt.known = v, true
			}
		}
		if in.Estimator != nil {
			if d, ok := in.Estimator.EstimateExecTime(t.Category); ok {
				pt.exec, pt.hasExc = d, true
			}
		}
		waiting[i] = pt
	}

	// tryDispatch places waiting tasks into current free capacity at
	// simulated time at, mirroring the master's policy: known sizes
	// first-fit, unknown sizes exclusively on an idle worker.
	used := make([]bool, len(pools)) // worker fully dedicated (exclusive)
	busy := make([]int, len(pools))  // live task count per worker
	for _, t := range in.Running {
		if wi, ok := index[t.WorkerID]; ok {
			busy[wi]++
		}
	}
	// Re-derive busy decrements through events: track per event.
	// (completionEvent frees one task's allocation on its worker.)
	tryDispatch := func(at time.Duration) {
		for i := range waiting {
			pt := &waiting[i]
			if pt.placed {
				continue
			}
			placedAt := -1
			if pt.known {
				for wi := range pools {
					if used[wi] {
						continue
					}
					if pt.res.Fits(pools[wi]) {
						placedAt = wi
						break
					}
				}
			} else {
				for wi := range pools {
					if busy[wi] == 0 && !used[wi] {
						placedAt = wi
						break
					}
				}
			}
			if placedAt < 0 {
				continue
			}
			pt.placed = true
			busy[placedAt]++
			alloc := pt.res
			if !pt.known {
				alloc = pools[placedAt] // whole remaining (idle) worker
				used[placedAt] = true
			}
			pools[placedAt] = pools[placedAt].Sub(alloc)
			if pt.hasExc && at+pt.exec <= in.InitTime {
				heap.Push(events, completionEvent{at: at + pt.exec, worker: placedAt, alloc: alloc})
			} else {
				rem := at + pt.exec
				if !pt.hasExc {
					rem = in.InitTime + in.DefaultCycle
				}
				if rem > maxRemaining {
					maxRemaining = rem
				}
			}
		}
	}

	tryDispatch(0)
	for events.Len() > 0 {
		ev := heap.Pop(events).(completionEvent)
		if ev.at > in.InitTime {
			break
		}
		pools[ev.worker] = pools[ev.worker].Add(ev.alloc)
		busy[ev.worker]--
		used[ev.worker] = false
		tryDispatch(ev.at)
	}

	unplaced := 0
	for _, pt := range waiting {
		if !pt.placed {
			unplaced++
		}
	}
	idle := 0
	for wi := range pools {
		if busy[wi] == 0 {
			idle++
		}
	}
	// Everything dispatched within the cycle: resources are
	// sufficient. Workers predicted idle at the window's end are
	// drained — the "removing idle resources" half of the paper's
	// queue-driven policy (§IV-B), which produces the mid-workflow
	// supply dip of Fig. 10b. (The paper's printed Algorithm 1
	// returns 0 here; without the drain, a stage boundary leaves the
	// whole fleet idle for a full stage.)
	if unplaced == 0 {
		return Decision{
			ScaleChange:          -idle,
			NextCycle:            in.DefaultCycle,
			PredictedIdleWorkers: idle,
		}
	}

	// Spare whole workers at the end of the window: scale down by
	// the number of idle workers (paper line 22-24).
	if idle > 0 {
		next := maxRemaining
		if next <= 0 || next > in.InitTime {
			next = in.InitTime
		}
		if next < in.DefaultCycle {
			next = in.DefaultCycle
		}
		return Decision{
			ScaleChange:          -idle,
			NextCycle:            next,
			PredictedIdleWorkers: idle,
			UnplacedWaiting:      unplaced,
		}
	}

	// Shortage: first-fit pack the unplaced tasks onto hypothetical
	// new workers (paper line 25, WorkerRequired).
	var bins []resources.Vector
	for i, pt := range waiting {
		if pt.placed {
			continue
		}
		res := waiting[i].res
		if !pt.known || !res.Fits(in.WorkerTemplate) {
			// Unknown-size tasks run exclusively; oversized estimates
			// are clamped to a whole worker.
			res = in.WorkerTemplate
		}
		placed := false
		for b := range bins {
			if res.Fits(bins[b]) {
				bins[b] = bins[b].Sub(res)
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, in.WorkerTemplate.Sub(res))
		}
	}
	return Decision{
		ScaleChange:     len(bins),
		NextCycle:       in.InitTime,
		UnplacedWaiting: unplaced,
	}
}
