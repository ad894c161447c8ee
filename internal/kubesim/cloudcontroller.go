package kubesim

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// addNode registers a ready node with the API server. Nodes are Ready
// from here until removeNode; nothing in between clears the flag.
func (c *Cluster) addNode() *Node {
	c.nodeSeq++
	now := c.eng.Now()
	n := &Node{
		Name:        fmt.Sprintf("node-%d", c.nodeSeq),
		Allocatable: c.cfg.NodeAllocatable,
		Ready:       true,
		CreatedAt:   now,
		ReadyAt:     now,
		Images:      make(map[string]bool),
	}
	c.nodes[n.Name] = n
	c.nodeList = append(c.nodeList, n) // merged into place by the next sortedNodes
	c.readyNodes++
	c.totalAllocatable = c.totalAllocatable.Add(n.Allocatable)
	c.stampEmpty(n, now)
	c.schedDirty, c.scaleDirty = true, true
	c.recordEvent("node/"+n.Name, ReasonNodeReady, "node is ready")
	c.notifyNode(Added, n)
	return n
}

func (c *Cluster) removeNode(n *Node) {
	delete(c.nodes, n.Name)
	delete(c.podsByNode, n.Name)
	c.nodeStale = true
	c.readyNodes--
	c.totalAllocatable = c.totalAllocatable.Sub(n.Allocatable)
	c.stampEmpty(n, time.Time{})
	c.scaleDirty = true
	c.recordEvent("node/"+n.Name, ReasonNodeRemoved, "empty node removed")
	c.notifyNode(Deleted, n)
}

// cloudControllerOnce is the cloud-controller-manager / cluster-
// autoscaler loop: reserve machines for unschedulable pods (batched
// per loop iteration, so same-batch nodes share provisioning latency,
// matching the paper's observation in §IV-B) and release nodes that
// have been empty longer than ScaleDownDelay. A sync after which
// nothing changed costs O(1): scale-up is re-evaluated only when
// scaleDirty says its inputs moved, scale-down only when some
// emptiness stamp can have expired.
func (c *Cluster) cloudControllerOnce() {
	if c.naive {
		c.naiveCloudControllerOnce()
		return
	}
	if c.scaleDirty {
		// Re-evaluating unchanged inputs is a no-op even right after a
		// reservation: that either covered the whole need or used up
		// the room, and provisioning now accounts for it.
		c.scaleDirty = false
		c.scaleUpForPending()
	}
	c.scaleDownEmpty()
}

func (c *Cluster) scaleUpForPending() {
	// The reservation is clamped to the quota's remaining room, so
	// without room the packing below cannot matter.
	room := c.cfg.MaxNodes - len(c.nodes) - c.provisioning
	if room <= 0 || c.pendingLive == 0 {
		return
	}
	// Nodes already being reserved will absorb part of the pending
	// demand; only provision the remainder.
	bins, unsched := c.packUnschedulable()
	if needed := min(bins-c.provisioning, room); needed > 0 {
		c.provision(needed, unsched)
	}
}

// provision reserves needed machines as one batch.
func (c *Cluster) provision(needed, unsched int) {
	// One latency sample per batch: machines reserved together in the
	// same zone become ready at nearly the same time, so the wave is a
	// single batch event — one ready time, one heap settle — rather
	// than per-node timers with per-node jitter.
	base := c.rng.TruncNormal(
		c.cfg.ProvisionMean.Seconds(),
		c.cfg.ProvisionStdDev.Seconds(),
		c.cfg.ProvisionMin.Seconds(),
		c.cfg.ProvisionMean.Seconds()+10*c.cfg.ProvisionStdDev.Seconds(),
	)
	jitter := c.rng.Normal(0, 0.5)
	if jitter < 0 {
		jitter = -jitter
	}
	c.provisioning += needed
	c.recordEvent("cluster", ReasonScaleUp,
		fmt.Sprintf("reserving %d nodes (pending unschedulable pods: %d)", needed, unsched))
	d := time.Duration((base + jitter) * float64(time.Second))
	c.eng.AfterBatchN(d, c.lane, "node-provision", needed, func() {
		c.provisioning--
		c.addNode()
	})
}

// packUnschedulable first-fit packs the unschedulable pods, in UID
// order (the estimate is order-sensitive for mixed sizes), onto the
// free space of existing nodes (capacity the scheduler has not yet
// used, e.g. a node that just came up) and then onto hypothetical
// empty nodes of the configured shape. It returns the count of new
// nodes required and of pods packed. A pod no standard node could host
// is left out: provisioning would never help it.
func (c *Cluster) packUnschedulable() (newNodes, unsched int) {
	free := c.freeSpace[:0]
	for _, n := range c.sortedNodes() {
		free = append(free, n.Allocatable.Sub(n.Allocated))
	}
	bins := c.bins[:0] // free space per hypothetical new node
	c.resetCursors()
	var cur *fitCursor
	for _, p := range c.pendingQ {
		if !p.waiting() || !p.UnschedulableSeen || !p.Resources.Fits(c.cfg.NodeAllocatable) {
			continue
		}
		unsched++
		if cur == nil || cur.shape != p.Resources {
			cur = c.cursorFor(p.Resources)
		}
		i := cur.node
		for i < len(free) && !c.fits(p.Resources, free[i]) {
			i++
		}
		cur.node = i
		if i < len(free) {
			free[i] = free[i].Sub(p.Resources)
			continue
		}
		b := cur.bin
		for b < len(bins) && !c.fits(p.Resources, bins[b]) {
			b++
		}
		cur.bin = b
		if b == len(bins) {
			bins = append(bins, c.cfg.NodeAllocatable.Sub(p.Resources))
		} else {
			bins[b] = bins[b].Sub(p.Resources)
		}
	}
	c.freeSpace, c.bins = free, bins
	return len(bins), unsched
}

// scaleDownEmpty removes, in roster order and down to MinNodes, the
// nodes that have stayed empty for ScaleDownDelay. In the indexed
// control plane a stamped node is an empty node (bind clears the
// stamp), so the walk needs no occupancy check.
func (c *Cluster) scaleDownEmpty() {
	now := c.eng.Now()
	if c.emptyNodes == 0 || now.Sub(c.emptyOldest) < c.cfg.ScaleDownDelay {
		return
	}
	var oldest time.Time
	for _, n := range c.sortedNodes() {
		if len(c.nodes)+c.provisioning <= c.cfg.MinNodes {
			return
		}
		switch {
		case n.EmptySince.IsZero():
		case now.Sub(n.EmptySince) >= c.cfg.ScaleDownDelay:
			c.recordEvent("cluster", ReasonScaleDown, "removing empty node "+n.Name)
			c.removeNode(n)
		case oldest.IsZero() || n.EmptySince.Before(oldest):
			oldest = n.EmptySince
		}
	}
	c.emptyOldest = oldest
}

// FailNode simulates an abrupt node loss (hardware failure): the node
// disappears from the fleet and every pod bound to it is killed, which
// informers observe as Deleted events with reason Killing. The cloud
// controller will re-provision on the next cycle if the dead pods'
// owners recreate them.
func (c *Cluster) FailNode(name string) error {
	return c.failNode(name, ReasonNodeFailure)
}

// PreemptNode simulates a cloud provider reclaiming a preemptible
// (spot) machine — mechanically identical to FailNode but recorded
// with reason Preempted so observers can distinguish reclaim storms
// from hardware faults.
func (c *Cluster) PreemptNode(name string) error {
	return c.failNode(name, ReasonPreempted)
}

func (c *Cluster) failNode(name, reason string) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("kubesim: node %q not found", name)
	}
	var victims []string
	if c.naive {
		for _, p := range c.ListPods(nil) {
			if p.NodeName == name && !p.Terminal() {
				victims = append(victims, p.Name)
			}
		}
	} else {
		bound := make([]*Pod, 0, len(c.podsByNode[name]))
		for _, p := range c.podsByNode[name] {
			bound = append(bound, p)
		}
		slices.SortFunc(bound, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
		for _, p := range bound {
			victims = append(victims, p.Name)
		}
	}
	for _, v := range victims {
		if err := c.DeletePod(v); err != nil {
			return err
		}
	}
	c.recordEvent("node/"+name, reason, fmt.Sprintf("node lost with %d pods", len(victims)))
	c.removeNode(n)
	return nil
}
