// Package core implements the paper's contribution: the
// High-Throughput Autoscaler (HTA), a well-informed feedback
// autoscaler for HTC workloads on a container orchestrator.
//
// HTA combines three signals: the job scheduler's queue state, the
// per-category resource consumption and execution time of completed
// jobs (the feedback input, via the resource monitor), and the
// cluster manager's resource-initialization time (measured live from
// worker-pod lifecycle events). Every resource-initialization cycle
// it simulates the dispatch of the current queue over the next cycle
// (Algorithm 1 of the paper), computes the resource shortage at the
// cycle's end, and resizes the worker-pod pool accordingly — creating
// node-sized worker pods on scale-up and draining idle workers (never
// killing running jobs) on scale-down.
package core

import (
	"time"

	"hta/internal/resources"
	"hta/internal/wq"
)

// WorkerInfo describes an active (non-draining) worker for the
// estimation simulation.
type WorkerInfo struct {
	ID       string
	Capacity resources.Vector
}

// EstimateInput carries the paper's Algorithm 1 inputs: the latest
// resource-initialization time, the running and waiting task sets,
// per-category runtime information (via the estimator), and the
// active workers.
type EstimateInput struct {
	// Now is the time the estimate is made (running tasks' elapsed
	// time is measured against it). The zero Now makes the estimate
	// time-free: no running task is predicted to finish, so every one
	// holds its allocation past the window.
	Now time.Time
	// InitTime is the latest measured resource-initialization time —
	// the length of the simulated window.
	InitTime time.Duration
	// DefaultCycle is returned as the next-action delay when the
	// queue drains within the window.
	DefaultCycle time.Duration
	// Tasks is a live view of the scheduler's running and waiting sets
	// (*wq.Master satisfies it): the planner reads the records in place
	// instead of a copied snapshot. ForEachRunning must visit in
	// ascending task ID order — the completion heap breaks ties by push
	// order — and ForEachWaiting in dispatch order.
	Tasks interface {
		ForEachRunning(fn func(t *wq.Task))
		ForEachWaiting(fn func(t *wq.Task))
	}
	// Running and Waiting are task snapshots, read only when Tasks is
	// nil: Running in ascending ID order, Waiting in dispatch order.
	Running []wq.Task
	Waiting []wq.Task
	// Estimator supplies per-category resource and execution-time
	// predictions (the resource monitor). It must be pure for the
	// duration of one estimate: the planner memoizes one lookup per
	// category instead of re-querying per task.
	Estimator wq.Estimator
	// Workers are the active workers, in dispatch order.
	Workers []WorkerInfo
	// WorkerTemplate is the capacity of a newly created worker
	// (node-sized, per the paper's one-worker-per-node deployment).
	WorkerTemplate resources.Vector
	// CapacityDiscount in [0, 1) shrinks every existing worker's
	// simulated capacity by that fraction — the autoscaler's hedge
	// against recently observed preemptions: capacity that may vanish
	// within the window is not counted on, so the plan over-provisions
	// to compensate. 0 = trust the fleet fully.
	CapacityDiscount float64
}

// Decision is Algorithm 1's output.
type Decision struct {
	// ScaleChange is the desired change in worker count: positive =
	// create workers, negative = drain idle workers, zero = hold.
	ScaleChange int
	// NextCycle is the recommended delay until the next resize
	// action: the init time when scaling up (the new resources take
	// that long to arrive), the longest predicted remaining runtime
	// when scaling down, or DefaultCycle when balanced.
	NextCycle time.Duration

	// Diagnostics.
	PredictedIdleWorkers int
	UnplacedWaiting      int
}

// completionEvent is a predicted task completion inside the window.
type completionEvent struct {
	at     time.Duration // offset from Now
	worker int           // index into pools
	alloc  resources.Vector
}

// groupKey identifies waiting tasks that are indistinguishable to the
// simulation: same predicted size, same knownness, same predicted
// execution time. Category names that map to identical predictions
// merge — the dispatch policy cannot tell them apart.
type groupKey struct {
	res    resources.Vector
	known  bool
	exec   time.Duration
	hasExc bool
}

// taskRun is a maximal run of consecutive waiting tasks sharing one
// groupKey; the simulation places it as a count instead of per-task
// structs. count is the still-unplaced remainder.
type taskRun struct {
	key   groupKey
	group int // index into Planner.groups
	count int
}

// groupState carries per-key first-fit resume pointers. Within one
// dispatch pass pools only shrink and exclusivity flags only set, so a
// prefix of pools that rejected the key keeps rejecting it and can be
// skipped; the same monotonicity holds for the shortage-phase bins.
type groupState struct {
	poolPtr int
	binPtr  int
}

// catEstimate memoizes one estimator lookup per category per call.
type catEstimate struct {
	res    resources.Vector
	resOK  bool
	exec   time.Duration
	execOK bool
}

// Planner evaluates Algorithm 1 with reusable scratch state so
// steady-state cycles allocate nothing. The zero value is ready to
// use; a Planner is not safe for concurrent use and must not be copied
// after first use (its visitors are bound to its address).
type Planner struct {
	pools    []resources.Vector
	index    map[string]int
	used     []bool
	busy     []int
	events   []completionEvent // binary min-heap ordered like container/heap
	runs     []taskRun
	pending  []int // indexes of runs with unplaced tasks, queue order
	groups   []groupState
	groupIdx map[groupKey]int
	cats     map[string]catEstimate
	bins     []resources.Vector

	// in and maxRemaining belong to the evaluation in progress; the
	// visitors are bound once so handing them to a task view allocates
	// nothing.
	in           EstimateInput
	maxRemaining time.Duration
	visitRunning func(t *wq.Task)
	visitWaiting func(t *wq.Task)
}

// EstimateScale implements the paper's Algorithm 1. It simulates the
// execution of the workflow over one resource-initialization cycle:
// running tasks free their allocations at their predicted completion
// times, waiting tasks are dispatched into freed capacity (and may
// themselves complete within the window), and the final balance
// decides the scaling action. It is a convenience wrapper allocating a
// fresh Planner; long-lived callers should hold a Planner and call its
// method to reuse the scratch state across cycles.
func EstimateScale(in EstimateInput) Decision {
	var p Planner
	return p.EstimateScale(in)
}

// EstimateScale evaluates Algorithm 1 on the planner's scratch state.
// Decisions are byte-identical to the per-task form the tests keep as
// their oracle (referenceEstimateScale in reference_test.go): the
// grouped simulation replays the exact placement and event sequence
// of the per-task form, it just skips work that provably cannot change
// it.
func (p *Planner) EstimateScale(in EstimateInput) Decision {
	if in.DefaultCycle <= 0 {
		in.DefaultCycle = 30 * time.Second
	}
	p.reset(len(in.Workers))
	p.in = in
	dec := p.estimate()
	p.in = EstimateInput{} // retain no caller state between cycles
	return dec
}

func (p *Planner) estimate() Decision {
	in := &p.in
	for i, w := range in.Workers {
		p.pools = append(p.pools, discountCapacity(w.Capacity, in.CapacityDiscount))
		p.index[w.ID] = i
		p.used = append(p.used, false)
		p.busy = append(p.busy, 0)
	}

	// Running tasks in ascending ID order seed the completion heap;
	// waiting tasks in dispatch order compress into runs.
	if in.Tasks != nil {
		in.Tasks.ForEachRunning(p.visitRunning)
		in.Tasks.ForEachWaiting(p.visitWaiting)
	} else {
		for i := range in.Running {
			p.addRunning(&in.Running[i])
		}
		for i := range in.Waiting {
			p.addWaiting(&in.Waiting[i])
		}
	}

	// Initial dispatch pass at t=0: walk the runs in queue order,
	// first-fit over all pools with per-key resume pointers.
	for ri := range p.runs {
		r := &p.runs[ri]
		g := &p.groups[r.group]
		for r.count > 0 {
			wi := g.poolPtr
			if r.key.known {
				for wi < len(p.pools) && (p.used[wi] || !r.key.res.Fits(p.pools[wi])) {
					wi++
				}
			} else {
				for wi < len(p.pools) && (p.busy[wi] != 0 || p.used[wi]) {
					wi++
				}
			}
			g.poolPtr = wi
			if wi == len(p.pools) {
				break
			}
			if r.key.known {
				p.placeBatch(r, wi, 0)
			} else {
				p.placeOneExclusive(r, wi, 0)
			}
		}
		if r.count > 0 {
			p.pending = append(p.pending, ri)
		}
	}
	minKnown, haveKnown, unknownPending := p.pendingBounds()

	for len(p.events) > 0 {
		ev := p.popEvent()
		if ev.at > in.InitTime {
			break
		}
		w := ev.worker
		p.pools[w] = p.pools[w].Add(ev.alloc)
		p.busy[w]--
		p.used[w] = false
		// Only worker w gained capacity (or idleness) since every
		// pending run last failed against the whole fleet, so only w
		// can accept a task now. Skip the pass outright if even the
		// component-wise minimum pending request cannot fit.
		if !(haveKnown && minKnown.Fits(p.pools[w])) &&
			!(unknownPending && p.busy[w] == 0) {
			continue
		}
		changed := false
		for _, ri := range p.pending {
			r := &p.runs[ri]
			if r.count == 0 {
				continue
			}
			if r.key.known {
				if !p.used[w] && r.key.res.Fits(p.pools[w]) {
					p.placeBatch(r, w, ev.at)
					changed = true
				}
			} else if p.busy[w] == 0 && !p.used[w] {
				p.placeOneExclusive(r, w, ev.at)
				changed = true
			}
		}
		if changed {
			p.compactPending()
			minKnown, haveKnown, unknownPending = p.pendingBounds()
		}
	}

	unplaced := 0
	for _, ri := range p.pending {
		unplaced += p.runs[ri].count
	}
	idle := 0
	for wi := range p.pools {
		if p.busy[wi] == 0 {
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
		next := p.maxRemaining
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
	// new workers (paper line 25, WorkerRequired). Bins only shrink,
	// so each key resumes from the first bin that has not rejected it.
	p.bins = p.bins[:0]
	for _, ri := range p.pending {
		r := &p.runs[ri]
		res := r.key.res
		if !r.key.known || !res.Fits(in.WorkerTemplate) {
			// Unknown-size tasks run exclusively; oversized estimates
			// are clamped to a whole worker.
			res = in.WorkerTemplate
		}
		g := &p.groups[r.group]
		for i := 0; i < r.count; i++ {
			b := g.binPtr
			for b < len(p.bins) && !res.Fits(p.bins[b]) {
				b++
			}
			g.binPtr = b
			if b == len(p.bins) {
				p.bins = append(p.bins, in.WorkerTemplate.Sub(res))
			} else {
				p.bins[b] = p.bins[b].Sub(res)
			}
		}
	}
	return Decision{
		ScaleChange:     len(p.bins),
		NextCycle:       in.InitTime,
		UnplacedWaiting: unplaced,
	}
}

// reset prepares the scratch state for a fresh evaluation.
func (p *Planner) reset(workers int) {
	p.pools = p.pools[:0]
	p.used = p.used[:0]
	p.busy = p.busy[:0]
	p.events = p.events[:0]
	p.runs = p.runs[:0]
	p.pending = p.pending[:0]
	p.groups = p.groups[:0]
	p.bins = p.bins[:0]
	p.maxRemaining = 0
	if p.index == nil {
		p.index = make(map[string]int, workers)
		p.groupIdx = make(map[groupKey]int)
		p.cats = make(map[string]catEstimate)
		p.visitRunning = p.addRunning
		p.visitWaiting = p.addWaiting
	} else {
		clear(p.index)
		clear(p.groupIdx)
		clear(p.cats)
	}
}

// catEstimate memoizes the estimator's per-category answers; the
// estimator is assumed pure within one evaluation.
func (p *Planner) catEstimate(cat string) catEstimate {
	if ce, ok := p.cats[cat]; ok {
		return ce
	}
	var ce catEstimate
	if p.in.Estimator != nil {
		ce.res, ce.resOK = p.in.Estimator.EstimateResources(cat)
		ce.exec, ce.execOK = p.in.Estimator.EstimateExecTime(cat)
	}
	p.cats[cat] = ce
	return ce
}

// addRunning charges a running task's allocation to its worker's pool
// and queues its predicted completion if that falls inside the window.
func (p *Planner) addRunning(t *wq.Task) {
	wi, ok := p.index[t.WorkerID]
	if !ok {
		// Task on a draining or unknown worker: its capacity is not
		// part of the active pool.
		return
	}
	p.pools[wi] = p.pools[wi].Sub(t.Allocated)
	p.busy[wi]++
	rem, known := p.remainingTime(t)
	if !known || rem > p.in.InitTime {
		if rem > p.maxRemaining {
			p.maxRemaining = rem
		}
		return // holds its allocation past the window
	}
	p.pushEvent(completionEvent{at: rem, worker: wi, alloc: t.Allocated})
}

// remainingTime predicts how much longer a running task needs, via the
// memoized per-category execution time; like the reference
// remainingTime it has no prediction at a zero Now.
func (p *Planner) remainingTime(t *wq.Task) (time.Duration, bool) {
	ce := p.catEstimate(t.Category)
	if !ce.execOK || p.in.Now.IsZero() {
		return 0, false
	}
	elapsed := p.in.Now.Sub(t.StartedAt)
	rem := ce.exec - elapsed
	if rem < 0 {
		rem = 0
	}
	return rem, true
}

// addWaiting appends the next waiting task (in dispatch order) to the
// run-length compressed queue: it extends the last run when its
// prediction matches, and opens a new run otherwise.
func (p *Planner) addWaiting(t *wq.Task) {
	ce := p.catEstimate(t.Category)
	key := groupKey{exec: ce.exec, hasExc: ce.execOK}
	if !t.Resources.IsZero() {
		key.res, key.known = t.Resources, true
	} else if ce.resOK && !ce.res.IsZero() {
		key.res, key.known = ce.res, true
	}
	if !key.hasExc {
		key.exec = 0
	}
	if n := len(p.runs); n > 0 && p.runs[n-1].key == key {
		p.runs[n-1].count++
		return
	}
	gi, ok := p.groupIdx[key]
	if !ok {
		gi = len(p.groups)
		p.groups = append(p.groups, groupState{})
		p.groupIdx[key] = gi
	}
	p.runs = append(p.runs, taskRun{key: key, group: gi, count: 1})
}

// placeBatch places as many tasks of the run as fit on pool wi at
// simulated time at — the exact sequence of single placements the
// per-task form performs, collapsed into one capacity division.
func (p *Planner) placeBatch(r *taskRun, wi int, at time.Duration) {
	res := r.key.res
	k := r.count
	// Only strictly positive components bound the batch; Fits already
	// held once, so the quotients are ≥ 1.
	if res.MilliCPU > 0 {
		if q := int(p.pools[wi].MilliCPU / res.MilliCPU); q < k {
			k = q
		}
	}
	if res.MemoryMB > 0 {
		if q := int(p.pools[wi].MemoryMB / res.MemoryMB); q < k {
			k = q
		}
	}
	if res.DiskMB > 0 {
		if q := int(p.pools[wi].DiskMB / res.DiskMB); q < k {
			k = q
		}
	}
	for i := 0; i < k; i++ {
		p.busy[wi]++
		p.pools[wi] = p.pools[wi].Sub(res)
		p.finishPlacement(r.key, wi, at, res)
	}
	r.count -= k
}

// placeOneExclusive dedicates the idle pool wi to one unknown-size
// task of the run.
func (p *Planner) placeOneExclusive(r *taskRun, wi int, at time.Duration) {
	alloc := p.pools[wi] // whole remaining (idle) worker
	p.used[wi] = true
	p.busy[wi]++
	p.pools[wi] = p.pools[wi].Sub(alloc)
	p.finishPlacement(r.key, wi, at, alloc)
	r.count--
}

// finishPlacement replays the per-task epilogue: queue a completion
// event when the task finishes inside the window, otherwise extend the
// predicted busy horizon.
func (p *Planner) finishPlacement(key groupKey, wi int, at time.Duration, alloc resources.Vector) {
	if key.hasExc && at+key.exec <= p.in.InitTime {
		p.pushEvent(completionEvent{at: at + key.exec, worker: wi, alloc: alloc})
		return
	}
	rem := at + key.exec
	if !key.hasExc {
		rem = p.in.InitTime + p.in.DefaultCycle
	}
	if rem > p.maxRemaining {
		p.maxRemaining = rem
	}
}

// compactPending drops fully placed runs from the pending list.
func (p *Planner) compactPending() {
	out := p.pending[:0]
	for _, ri := range p.pending {
		if p.runs[ri].count > 0 {
			out = append(out, ri)
		}
	}
	p.pending = out
}

// pendingBounds summarizes the pending runs for the per-event early
// exit: the component-wise minimum of the known requests (if even that
// cannot fit a freed pool, no known task can) and whether any
// unknown-size task still waits for an idle worker.
func (p *Planner) pendingBounds() (minKnown resources.Vector, haveKnown, unknownPending bool) {
	for _, ri := range p.pending {
		r := &p.runs[ri]
		if !r.key.known {
			unknownPending = true
			continue
		}
		if !haveKnown {
			minKnown, haveKnown = r.key.res, true
			continue
		}
		if r.key.res.MilliCPU < minKnown.MilliCPU {
			minKnown.MilliCPU = r.key.res.MilliCPU
		}
		if r.key.res.MemoryMB < minKnown.MemoryMB {
			minKnown.MemoryMB = r.key.res.MemoryMB
		}
		if r.key.res.DiskMB < minKnown.DiskMB {
			minKnown.DiskMB = r.key.res.DiskMB
		}
	}
	return minKnown, haveKnown, unknownPending
}

// pushEvent and popEvent implement the same binary heap as
// container/heap over the typed slice (identical sift directions and
// tie handling), so the event order — and therefore every dispatch
// decision — matches the reference exactly, without interface boxing.
func (p *Planner) pushEvent(e completionEvent) {
	p.events = append(p.events, e)
	j := len(p.events) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(p.events[j].at < p.events[i].at) {
			break
		}
		p.events[i], p.events[j] = p.events[j], p.events[i]
		j = i
	}
}

func (p *Planner) popEvent() completionEvent {
	n := len(p.events) - 1
	p.events[0], p.events[n] = p.events[n], p.events[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && p.events[j2].at < p.events[j1].at {
			j = j2
		}
		if !(p.events[j].at < p.events[i].at) {
			break
		}
		p.events[i], p.events[j] = p.events[j], p.events[i]
		i = j
	}
	e := p.events[n]
	p.events = p.events[:n]
	return e
}

// discountCapacity shrinks a capacity vector by fraction d in [0, 1).
func discountCapacity(v resources.Vector, d float64) resources.Vector {
	if d <= 0 {
		return v
	}
	if d >= 1 {
		d = 1
	}
	f := 1 - d
	return resources.Vector{
		MilliCPU: int64(float64(v.MilliCPU) * f),
		MemoryMB: int64(float64(v.MemoryMB) * f),
		DiskMB:   int64(float64(v.DiskMB) * f),
	}
}

// remainingTime predicts how much longer a running task needs, based
// on the category's mean measured wall time. The second return is
// false when the category has no measurements yet (warm-up probes) or
// the estimate is time-free (zero Now).
func remainingTime(in EstimateInput, t wq.Task) (time.Duration, bool) {
	if in.Estimator == nil || in.Now.IsZero() {
		return 0, false
	}
	est, ok := in.Estimator.EstimateExecTime(t.Category)
	if !ok {
		return 0, false
	}
	elapsed := in.Now.Sub(t.StartedAt)
	rem := est - elapsed
	if rem < 0 {
		rem = 0
	}
	return rem, true
}
