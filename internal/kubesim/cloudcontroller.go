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
	n := c.nodeSlab.next()
	*n = Node{
		Name:        c.nodeNames.Numbered("node-", c.nodeSeq),
		Allocatable: c.cfg.NodeAllocatable,
		Ready:       true,
		CreatedAt:   now,
		ReadyAt:     now,
	}
	c.nodes[n.Name] = n
	c.nodeList = append(c.nodeList, n) // merged into place by the next sortedNodes
	c.readyNodes++
	c.stampEmpty(n, now)
	c.schedDirty, c.scaleDirty = true, true
	c.notifyNode(Added, n)
	return n
}

func (c *Cluster) removeNode(n *Node) {
	delete(c.nodes, n.Name)
	c.dropImages(n)
	c.nodeStale = true
	c.readyNodes--
	c.stampEmpty(n, time.Time{})
	c.scaleDirty = true
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
	if needed := min(c.packUnschedulable()-c.provisioning, room); needed > 0 {
		c.provision(needed)
	}
}

// provision reserves needed machines as one wave.
func (c *Cluster) provision(needed int) {
	// One latency sample per wave: machines reserved together in the
	// same zone become ready at nearly the same time, so every node of
	// the wave gets the same ready time rather than its own jitter.
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
	d := time.Duration((base + jitter) * float64(time.Second))
	for range needed {
		c.eng.After(d, "node-provision", c.nodeProvisionedFn)
	}
}

// nodeProvisioned ends one machine's reservation: the node joins the
// fleet.
func (c *Cluster) nodeProvisioned() {
	c.provisioning--
	c.addNode()
}

// packUnschedulable first-fit packs the unschedulable pods, in UID
// order (the estimate is order-sensitive for mixed sizes), onto the
// free space of existing nodes (capacity the scheduler has not yet
// used, e.g. a node that just came up) and then onto hypothetical
// empty nodes of the configured shape. It returns the count of new
// nodes required. A pod no standard node could host is left out:
// provisioning would never help it.
func (c *Cluster) packUnschedulable() int {
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
	return len(bins)
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
	c.walks++
	defer func() { c.walks-- }()
	for _, n := range c.sortedNodes() {
		if len(c.nodes)+c.provisioning <= c.cfg.MinNodes {
			return
		}
		switch {
		case n.EmptySince.IsZero():
		case now.Sub(n.EmptySince) >= c.cfg.ScaleDownDelay:
			c.removeNode(n)
		case oldest.IsZero() || n.EmptySince.Before(oldest):
			oldest = n.EmptySince
		}
	}
	c.emptyOldest = oldest
}

// PreemptNode simulates the abrupt loss of a node, as when a cloud
// provider reclaims a preemptible (spot) machine: the node disappears
// from the fleet and every pod bound to it is killed, which informers
// observe as pod Deleted events with reason Killing followed by the
// node's Deleted event. The cloud controller re-provisions on a later
// cycle if the dead pods' owners recreate them.
func (c *Cluster) PreemptNode(name string) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("kubesim: node %q not found", name)
	}
	bound := make([]*Pod, 0, n.livePods)
	for p := n.pods; p != nil; p = p.nextOnNode {
		bound = append(bound, p)
	}
	slices.SortFunc(bound, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
	for _, p := range bound {
		if err := c.DeletePod(p.Name); err != nil {
			return err
		}
	}
	c.removeNode(n)
	return nil
}
