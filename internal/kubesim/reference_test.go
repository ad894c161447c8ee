package kubesim

import (
	"cmp"
	"slices"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// This file keeps the pre-index control-plane primitives and the
// pre-incremental sweeps as test oracles (see differential_test.go):
// the naive forms recompute node occupancy by scanning the entire pod
// store, re-sort the node roster and the pending set on every pass
// and first-fit every pod over every node and bin on every sync
// whether or not anything changed, which is exactly the O(pending ×
// nodes × pods) behaviour the indexes, cursors and dirty flags remove.
// The state transitions themselves (bind, markUnschedulable,
// provision, removeNode) are the production ones, so a sweep that
// finds work changes the same state the loops would.

// naiveNodeIsEmpty scans the whole pod store for a live pod bound to
// the node.
func (c *Cluster) naiveNodeIsEmpty(n *Node) bool {
	for _, p := range c.pods {
		if p.NodeName == n.Name && !p.Terminal() {
			return false
		}
	}
	return true
}

// naiveNodeFree recomputes the node's free capacity by subtracting
// every live bound pod's request from its allocatable.
func (c *Cluster) naiveNodeFree(n *Node) resources.Vector {
	free := n.Allocatable
	for _, q := range c.pods {
		if q.NodeName == n.Name && !q.Terminal() {
			free = free.Sub(q.Resources)
		}
	}
	return free
}

// naiveSortedNodes rebuilds and sorts the node roster from scratch.
func (c *Cluster) naiveSortedNodes() []*Node {
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	slices.SortFunc(out, compareNodes)
	return out
}

// naivePendingUnbound scans the whole pod store for Pending unbound
// pods, appending them to out.
func (c *Cluster) naivePendingUnbound(out []*Pod) []*Pod {
	for _, p := range c.pods {
		if p.Phase == PodPending && p.NodeName == "" {
			out = append(out, p)
		}
	}
	return out
}

// naiveReadyNodes walks the node map counting ready nodes.
func (c *Cluster) naiveReadyNodes() int {
	n := 0
	for _, node := range c.nodes {
		if node.Ready {
			n++
		}
	}
	return n
}

// naiveScheduleOnce is the full scheduler sweep: reconcile every
// StatefulSet, then first-fit every pending pod over the whole roster.
func (c *Cluster) naiveScheduleOnce() {
	for _, ss := range c.statefulsets {
		c.reconcileStatefulSet(ss)
	}

	pending := c.naivePendingUnbound(nil)
	slices.SortFunc(pending, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
	nodes := c.naiveSortedNodes()
	for _, p := range pending {
		placed := false
		for _, n := range nodes {
			if !n.Ready {
				continue
			}
			if p.Resources.Fits(c.naiveNodeFree(n)) {
				c.bind(p, n)
				placed = true
				break
			}
		}
		if !placed && !p.UnschedulableSeen {
			c.markUnschedulable(p)
		}
	}
}

// useNaiveLoops swaps the cluster's two control loops for their naive
// forms on the same schedule: the scheduler runs naiveScheduleOnce,
// the cloud controller both naive sweeps. Called right after
// NewCluster, before anything else schedules an event, the loops keep
// their place in the engine's order, so a whole run can be compared
// event for event with one under the production loops.
func (c *Cluster) useNaiveLoops() {
	for _, t := range c.tickers {
		t.Stop()
	}
	c.tickers = []*simclock.Ticker{
		c.eng.Every(schedulerInterval, "kube-scheduler", func() {
			c.naiveScheduleOnce()
			c.compactPending()
		}),
		c.eng.Every(autoscalerInterval, "cloud-controller", c.naiveCloudControllerOnce),
	}
}

// naiveCloudControllerOnce runs both cloud-controller sweeps in full,
// re-sorting the roster before each as the pre-index controller did.
func (c *Cluster) naiveCloudControllerOnce() {
	c.naiveScaleUpForPending(c.naiveSortedNodes())
	c.naiveScaleDownEmpty(c.naiveSortedNodes())
}

func (c *Cluster) naiveScaleUpForPending(nodes []*Node) {
	var unsched []*Pod
	for _, p := range c.pods {
		if p.Phase == PodPending && p.NodeName == "" && p.UnschedulableSeen {
			// A node of the standard shape must be able to host the
			// pod at all, or provisioning would never help.
			if p.Resources.Fits(c.cfg.NodeAllocatable) {
				unsched = append(unsched, p)
			}
		}
	}
	// Deterministic queue order: the bin-packed node estimate below is
	// order-sensitive for mixed pod sizes.
	slices.SortFunc(unsched, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
	if len(unsched) == 0 {
		return
	}
	// Nodes already being reserved will absorb part of the pending
	// demand; only provision the remainder.
	needed := c.naiveNodesNeededFor(nodes, unsched) - c.provisioning
	room := c.cfg.MaxNodes - len(c.nodes) - c.provisioning
	if needed > room {
		needed = room
	}
	if needed <= 0 {
		return
	}
	c.provision(needed)
}

// naiveNodesNeededFor first-fit packs the pending pods onto the free
// space of existing ready nodes and then onto hypothetical empty nodes
// of the configured shape, scanning both from the start for every pod,
// and returns only the count of new nodes required.
func (c *Cluster) naiveNodesNeededFor(nodes []*Node, pods []*Pod) int {
	var existing []resources.Vector
	for _, n := range nodes {
		if !n.Ready {
			continue
		}
		existing = append(existing, c.naiveNodeFree(n))
	}
	var bins []resources.Vector // free space per hypothetical new node
	for _, p := range pods {
		placedExisting := false
		for i := range existing {
			if p.Resources.Fits(existing[i]) {
				existing[i] = existing[i].Sub(p.Resources)
				placedExisting = true
				break
			}
		}
		if placedExisting {
			continue
		}
		placed := false
		for i := range bins {
			if p.Resources.Fits(bins[i]) {
				bins[i] = bins[i].Sub(p.Resources)
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, c.cfg.NodeAllocatable.Sub(p.Resources))
		}
	}
	return len(bins)
}

// naiveScaleDownEmpty walks the whole roster for expired emptiness
// stamps, re-checking occupancy against the pod store.
func (c *Cluster) naiveScaleDownEmpty(nodes []*Node) {
	now := c.eng.Now()
	for _, n := range nodes {
		if len(c.nodes)+c.provisioning <= c.cfg.MinNodes {
			return
		}
		if !n.Ready || n.EmptySince.IsZero() {
			continue
		}
		if now.Sub(n.EmptySince) < c.cfg.ScaleDownDelay {
			continue
		}
		if !c.naiveNodeIsEmpty(n) {
			// Stale stamp; clear it.
			c.stampEmpty(n, time.Time{})
			continue
		}
		c.removeNode(n)
	}
}
