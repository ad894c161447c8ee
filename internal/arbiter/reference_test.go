package arbiter

import (
	"cmp"
	"slices"
	"time"

	"hta/internal/core"
	"hta/internal/resources"
	"hta/internal/wq"
)

// This file keeps the naive full-replan arbiter the incremental path
// replaced, as a test oracle (the same discipline as simclock's
// refEngine, netsim's refLink, kubesim's naive sweeps, wq's roster
// scan and core's referenceEstimateScale). It is deliberately
// written the obvious way — fresh snapshots, fresh planner, fresh
// allocations, no memoization, no dirty tracking, per-tenant maps and
// sorts — so its per-cycle cost is O(T × planner) and its code shares
// nothing with the packed hot path beyond the allocation spec in
// allocate.go. The differential suite and fuzz target hold the two
// byte-identical on every cycle.

// referencePlan computes one cycle's grants the naive way: every
// tenant is re-planned from a fresh snapshot, every cycle.
func (a *Arbiter) referencePlan() []int64 {
	demand := make([]int64, len(a.tenants))
	for i, t := range a.tenants {
		if a.inactive(t) {
			demand[i] = 0
			a.maybeSettle(t)
			continue
		}
		demand[i] = a.referenceDigest(t)
	}
	return referenceAllocate(refInput{
		policy: a.cfg.Policy,
		total:  int64(a.cfg.TotalWorkers),
		weight: a.al.weight,
		floor:  a.al.floor,
		ceil:   a.al.ceil,
		prio:   a.al.prio,
		vsvc:   a.al.vsvc,
		demand: demand,
	})
}

// referenceDigest recomputes the tenant's demand from scratch:
// freshly allocated worker, running and waiting snapshots and a
// throwaway planner (core.EstimateScale allocates one per call). The
// inputs match estimateInput's exactly — same zero Now, same
// zero-length window, same dispatch-order waiting snapshot — so the
// digests must agree whenever the memo is sound.
func (a *Arbiter) referenceDigest(t *Tenant) int64 {
	var workers []core.WorkerInfo
	t.master.ForEachWorker(func(id string, capacity resources.Vector, draining bool) {
		if draining {
			return
		}
		workers = append(workers, core.WorkerInfo{ID: id, Capacity: capacity})
	})
	running := t.master.RunningTasks()
	var waiting []wq.Task
	t.master.ForEachWaiting(func(task *wq.Task) { waiting = append(waiting, *task) })
	dec := core.EstimateScale(core.EstimateInput{
		Now:            time.Time{},
		InitTime:       0,
		DefaultCycle:   a.cfg.Cycle,
		Running:        running,
		Waiting:        waiting,
		Estimator:      t.mon,
		Workers:        workers,
		WorkerTemplate: a.template,
	})
	d := int64(len(workers) + dec.ScaleChange)
	if d < 0 {
		d = 0
	}
	return d
}

// refInput carries one allocation's inputs; every slice is read-only.
type refInput struct {
	policy Policy
	total  int64
	weight []int64
	floor  []int64
	ceil   []int64
	prio   []int32
	vsvc   []int64
	demand []int64
}

// referenceAllocate implements the allocation spec (allocate.go, top
// comment) the straightforward way: tenant structs, fresh slices,
// repeated sums. It must produce exactly the packed allocator's
// grants.
func referenceAllocate(in refInput) []int64 {
	n := len(in.weight)
	grant := make([]int64, n)
	capi := make([]int64, n)
	for i := 0; i < n; i++ {
		c := in.demand[i]
		if c < 0 {
			c = 0
		}
		if in.ceil[i] > 0 && c > in.ceil[i] {
			c = in.ceil[i]
		}
		capi[i] = c
	}
	R := in.total
	if in.policy == PolicyGreedy {
		for i := 0; i < n && R > 0; i++ {
			g := min(capi[i], R)
			grant[i] = g
			R -= g
		}
		return grant
	}
	// Floors, class-blind.
	want := make([]int64, n)
	all := make([]int, 0, n)
	for i := 0; i < n; i++ {
		want[i] = min(capi[i], in.floor[i])
		all = append(all, i)
	}
	R = refFill(in, all, want, R, grant)
	// Priority classes, descending.
	classes := map[int32][]int{}
	var prios []int32
	for i := 0; i < n; i++ {
		p := in.prio[i]
		if _, seen := classes[p]; !seen {
			prios = append(prios, p)
		}
		classes[p] = append(classes[p], i)
	}
	slices.SortFunc(prios, func(a, b int32) int { return cmp.Compare(b, a) })
	for _, p := range prios {
		if R <= 0 {
			break
		}
		idxs := classes[p]
		for _, i := range idxs {
			want[i] = capi[i] - grant[i]
		}
		R = refFill(in, idxs, want, R, grant)
	}
	return grant
}

// refFill is the spec's stages 4–5 written plainly.
func refFill(in refInput, idxs []int, want []int64, R int64, grant []int64) int64 {
	var act []int
	for _, i := range idxs {
		if want[i] > 0 {
			act = append(act, i)
		}
	}
	for R > 0 && len(act) > 0 {
		var W int64
		for _, i := range act {
			W += in.weight[i]
		}
		q := R / W
		if q == 0 {
			// Sub-quantum remainder: one worker per round, deficit
			// order, sorted once.
			slices.SortFunc(act, func(a, b int) int {
				if c := cmp.Compare(in.vsvc[a], in.vsvc[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			for R > 0 && len(act) > 0 {
				var next []int
				for _, i := range act {
					if R > 0 {
						grant[i]++
						want[i]--
						R--
					}
					if want[i] > 0 {
						next = append(next, i)
					}
				}
				act = next
			}
			return R
		}
		var next []int
		for _, i := range act {
			g := min(in.weight[i]*q, want[i])
			grant[i] += g
			want[i] -= g
			R -= g
			if want[i] > 0 {
				next = append(next, i)
			}
		}
		act = next
	}
	return R
}
