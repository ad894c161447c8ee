package arbiter

import (
	"cmp"
	"slices"
)

// Allocation semantics (the spec both the packed allocator below and
// the naive referenceAllocate in reference_test.go implement — the
// differential suite and fuzz target hold them byte-identical):
//
//  1. Each tenant's effective demand is capped at its quota ceiling
//     (QuotaMax, 0 = unlimited): capᵢ = min(demandᵢ, ceilᵢ).
//  2. Floors first, class-blind: every tenant is owed
//     min(capᵢ, floorᵢ) before anyone gets discretionary capacity. If
//     the floors themselves oversubscribe the cluster they are
//     water-filled by weight like any other want.
//  3. Remaining capacity is granted by priority class, descending: a
//     lower class sees capacity only after every higher class's capped
//     demand is satisfied.
//  4. Within a class (and within the floor stage), capacity is divided
//     by integer weighted max-min water-filling: repeatedly give every
//     unsatisfied tenant weightᵢ·⌊R/ΣW⌋ (capped at its remaining
//     want) until the whole-quantum rounds are exhausted.
//  5. The sub-quantum remainder (R < ΣW) goes one worker at a time in
//     rounds over the unsatisfied tenants ordered by (virtual service
//     ascending, tenant index ascending). Virtual service is the
//     cumulative weighted grant vᵢ += grantᵢ·vsvcUnit/weightᵢ,
//     committed once per cycle — deficit-round-robin, so when tenants
//     outnumber workers the single workers rotate across cycles
//     instead of pinning to the lowest indices.
//  6. PolicyGreedy ignores weights, floors and classes: demands are
//     satisfied in tenant index order until capacity runs out (the
//     E-J single-shared-autoscaler baseline). Ceilings still apply.
//
// The allocator is deliberately a pure function of
// (config, vsvc, demand): plan passes never mutate tenant state, so
// the tests can run the incremental plan and the reference arbiter
// side by side on identical inputs.
type allocator struct {
	policy Policy
	total  int64 // cluster-wide worker capacity C

	// Per-tenant configuration, packed into int64 vectors so the
	// allocation pass streams flat arrays instead of chasing tenant
	// structs.
	weight []int64
	floor  []int64
	ceil   []int64 // 0 = unlimited
	prio   []int32

	// vsvc is the cumulative weighted service counter (stage 5).
	vsvc []int64

	// classIdx holds tenant indices sorted by (priority descending,
	// index ascending); classDirty marks it for rebuild after
	// addTenant.
	classIdx   []int32
	classDirty bool

	// Pooled scratch: reused across cycles so a steady-state
	// allocation performs zero heap allocations (asserted by
	// TestArbiterCycleZeroAlloc).
	capi []int64
	want []int64
	act  []int32
}

// vsvcUnit scales the virtual-service counter so integer division by
// small weights keeps precision.
const vsvcUnit = 1 << 20

// maxWeight bounds tenant weights so weight sums and weight·quantum
// products stay far from int64 overflow.
const maxWeight = 1 << 20

func (al *allocator) addTenant(weight, floor, ceil int64, prio int32) {
	if weight < 1 {
		weight = 1
	}
	if weight > maxWeight {
		weight = maxWeight
	}
	if floor < 0 {
		floor = 0
	}
	if ceil < 0 {
		ceil = 0
	}
	al.weight = append(al.weight, weight)
	al.floor = append(al.floor, floor)
	al.ceil = append(al.ceil, ceil)
	al.prio = append(al.prio, prio)
	al.vsvc = append(al.vsvc, 0)
	al.capi = append(al.capi, 0)
	al.want = append(al.want, 0)
	al.classDirty = true
}

// removeTenant splices tenant i out of every packed vector. Callers
// must reindex their own tenant slots to match.
func (al *allocator) removeTenant(i int) {
	al.weight = slices.Delete(al.weight, i, i+1)
	al.floor = slices.Delete(al.floor, i, i+1)
	al.ceil = slices.Delete(al.ceil, i, i+1)
	al.prio = slices.Delete(al.prio, i, i+1)
	al.vsvc = slices.Delete(al.vsvc, i, i+1)
	al.capi = al.capi[:len(al.weight)]
	al.want = al.want[:len(al.weight)]
	al.classDirty = true
}

func (al *allocator) rebuildClasses() {
	al.classIdx = al.classIdx[:0]
	for i := range al.weight {
		al.classIdx = append(al.classIdx, int32(i))
	}
	slices.SortFunc(al.classIdx, func(a, b int32) int {
		if c := cmp.Compare(al.prio[b], al.prio[a]); c != 0 {
			return c // priority descending
		}
		return cmp.Compare(a, b) // index ascending within a class
	})
	al.classDirty = false
}

// allocate computes grants for the given demands. demand and grant
// must both have one entry per tenant; grant is overwritten.
func (al *allocator) allocate(demand, grant []int64) {
	if al.classDirty {
		al.rebuildClasses()
	}
	n := len(al.weight)
	R := al.total
	for i := 0; i < n; i++ {
		c := demand[i]
		if c < 0 {
			c = 0
		}
		if al.ceil[i] > 0 && c > al.ceil[i] {
			c = al.ceil[i]
		}
		al.capi[i] = c
		grant[i] = 0
	}
	if al.policy == PolicyGreedy {
		for i := 0; i < n && R > 0; i++ {
			g := al.capi[i]
			if g > R {
				g = R
			}
			grant[i] = g
			R -= g
		}
		return
	}
	// Stage 2: floors, class-blind.
	for i := 0; i < n; i++ {
		f := al.floor[i]
		if f > al.capi[i] {
			f = al.capi[i]
		}
		al.want[i] = f
	}
	R = al.fill(al.classIdx, R, grant)
	// Stage 3: priority classes, descending. classIdx is grouped by
	// priority, so each maximal run of equal priorities is one class.
	for lo := 0; lo < len(al.classIdx) && R > 0; {
		hi := lo + 1
		p := al.prio[al.classIdx[lo]]
		for hi < len(al.classIdx) && al.prio[al.classIdx[hi]] == p {
			hi++
		}
		span := al.classIdx[lo:hi]
		for _, i := range span {
			al.want[i] = al.capi[i] - grant[i]
		}
		R = al.fill(span, R, grant)
		lo = hi
	}
}

// fill water-fills R workers over the tenants in idxs according to
// al.want (stages 4–5 of the spec), adding into grant and returning
// the unallocated remainder.
func (al *allocator) fill(idxs []int32, R int64, grant []int64) int64 {
	act := al.act[:0]
	for _, i := range idxs {
		if al.want[i] > 0 {
			act = append(act, i)
		}
	}
	for R > 0 && len(act) > 0 {
		var W int64
		for _, i := range act {
			W += al.weight[i]
		}
		q := R / W
		if q == 0 {
			// Stage 5: sub-quantum remainder, one worker per round in
			// deficit order. act is sorted once; rounds preserve the
			// order while filtering satisfied tenants in place.
			slices.SortFunc(act, func(a, b int32) int {
				if c := cmp.Compare(al.vsvc[a], al.vsvc[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			for R > 0 && len(act) > 0 {
				out := act[:0]
				for _, i := range act {
					if R > 0 {
						grant[i]++
						al.want[i]--
						R--
					}
					if al.want[i] > 0 {
						out = append(out, i)
					}
				}
				act = out
			}
			break
		}
		out := act[:0]
		for _, i := range act {
			g := al.weight[i] * q
			if g > al.want[i] {
				g = al.want[i]
			}
			grant[i] += g
			al.want[i] -= g
			R -= g
			if al.want[i] > 0 {
				out = append(out, i)
			}
		}
		act = out
	}
	al.act = act[:0]
	return R
}

// commit folds one cycle's grants into the virtual-service counters.
// Called exactly once per cycle, after planning (the tests' reference
// plan reads the same pre-commit counters).
func (al *allocator) commit(grant []int64) {
	for i := range al.vsvc {
		al.vsvc[i] += grant[i] * vsvcUnit / al.weight[i]
	}
}
