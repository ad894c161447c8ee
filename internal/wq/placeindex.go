package wq

import "hta/internal/resources"

// availIndex is a segment tree over roster slots keyed by each
// worker's available capacity. Internal nodes hold the component-wise
// Max of their children, so FirstFit placement descends leftmost-fit
// in ~O(log W) instead of scanning the roster, and the pass-wide
// maxFree bound is the root in O(1). Draining workers and tombstoned
// slots carry resources.Zero and are never selected (every placeable
// request has a positive component).
//
// The component-wise max of a subtree is necessary but not sufficient
// for a fit (the max CPU and max memory may come from different
// workers), so the descent may probe a subtree that turns out empty
// and continue right; with the near-homogeneous pools HTC deployments
// run, that path is cold.
// The tree is 4-ary: over a 100k-worker roster a leaf-to-root walk is
// 9 levels instead of 17, and levels — each a likely cache miss on a
// multi-megabyte node array — dominate the cost of both set and the
// descent. The wider node costs two extra Max/Fits per level, which
// are register-resident arithmetic.
type availIndex struct {
	n    int                // leaf count, power of four (0 = empty)
	base int                // index of the first leaf: (n-1)/3
	node []resources.Vector // 0-based; children of i at 4i+1..4i+4
}

// reset rebuilds the tree for the given leaf values.
func (ix *availIndex) reset(leaves []resources.Vector) {
	if len(leaves) == 0 {
		ix.n, ix.base, ix.node = 0, 0, nil
		return
	}
	ix.n = 1
	for ix.n < len(leaves) {
		ix.n *= 4
	}
	ix.base = (ix.n - 1) / 3
	ix.node = make([]resources.Vector, ix.base+ix.n)
	copy(ix.node[ix.base:], leaves)
	ix.rebuild()
}

func (ix *availIndex) rebuild() {
	for i := ix.base - 1; i >= 0; i-- {
		c := 4*i + 1
		ix.node[i] = ix.node[c].Max(ix.node[c+1]).Max(ix.node[c+2].Max(ix.node[c+3]))
	}
}

// ensure grows the tree to hold at least slots leaves, preserving
// existing values.
func (ix *availIndex) ensure(slots int) {
	if slots <= ix.n {
		return
	}
	old := ix.node
	oldN, oldBase := ix.n, ix.base
	n := ix.n
	if n == 0 {
		n = 1
	}
	for n < slots {
		n *= 4
	}
	ix.n = n
	ix.base = (n - 1) / 3
	ix.node = make([]resources.Vector, ix.base+n)
	if oldN > 0 {
		copy(ix.node[ix.base:], old[oldBase:oldBase+oldN])
	}
	ix.rebuild()
}

// set updates the leaf for a slot and re-aggregates its ancestors.
func (ix *availIndex) set(slot int, v resources.Vector) {
	i := ix.base + slot
	if ix.node[i] == v {
		return
	}
	ix.node[i] = v
	for i > 0 {
		i = (i - 1) / 4
		c := 4*i + 1
		agg := ix.node[c].Max(ix.node[c+1]).Max(ix.node[c+2].Max(ix.node[c+3]))
		if agg == ix.node[i] {
			break
		}
		ix.node[i] = agg
	}
}

// maxFree returns the component-wise maximum available capacity over
// all slots — the root aggregate.
func (ix *availIndex) maxFree() resources.Vector {
	if ix.n == 0 {
		return resources.Zero
	}
	return ix.node[0]
}

// findFirst returns the lowest slot whose available capacity fits
// res, or -1. Roster slots are assigned in join order and compaction
// preserves relative order, so lowest slot = first fit in join order:
// exactly what a linear scan of the roster finds, which the placement
// tests check after every event.
func (ix *availIndex) findFirst(res resources.Vector) int {
	if ix.n == 0 || !res.Fits(ix.node[0]) {
		return -1
	}
	return ix.search(0, res)
}

func (ix *availIndex) search(i int, res resources.Vector) int {
	if i >= ix.base {
		return i - ix.base
	}
	c := 4*i + 1
	for k := 0; k < 4; k++ {
		if res.Fits(ix.node[c+k]) {
			if s := ix.search(c+k, res); s >= 0 {
				return s
			}
		}
	}
	return -1
}

// --- master-side maintenance ---

// syncAvail refreshes a worker's leaf after any allocation, release,
// or draining change. Draining workers index as Zero so placement
// never selects them.
func (m *Master) syncAvail(w *simWorker) {
	if w.slot < 0 {
		return
	}
	if w.draining {
		m.avail.set(w.slot, resources.Zero)
		return
	}
	m.avail.set(w.slot, w.pool.Available())
}

// rosterAppend assigns the next slot to a joining worker.
func (m *Master) rosterAppend(w *simWorker) {
	w.slot = len(m.roster)
	m.roster = append(m.roster, w)
	m.avail.ensure(len(m.roster))
	m.avail.set(w.slot, w.pool.Available())
}

// rosterRemove tombstones a departing worker's slot, compacting the
// roster (preserving join order) once tombstones dominate.
func (m *Master) rosterRemove(w *simWorker) {
	if w.slot < 0 {
		return
	}
	m.roster[w.slot] = nil
	m.avail.set(w.slot, resources.Zero)
	w.slot = -1
	m.tombs++
	if m.tombs > 64 && m.tombs > len(m.roster)/2 {
		m.compactRoster()
	}
}

func (m *Master) compactRoster() {
	live := m.roster[:0]
	for _, w := range m.roster {
		if w != nil {
			w.slot = len(live)
			live = append(live, w)
		}
	}
	for i := len(live); i < len(m.roster); i++ {
		m.roster[i] = nil
	}
	m.roster = live
	m.tombs = 0
	leaves := make([]resources.Vector, len(live))
	for i, w := range live {
		if !w.draining {
			leaves[i] = w.pool.Available()
		}
	}
	m.avail.reset(leaves)
}
