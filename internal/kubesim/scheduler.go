package kubesim

import (
	"slices"
	"strings"
	"time"

	"hta/internal/resources"
)

// waiting reports whether the pod is Pending and not yet bound — the
// scheduler's work queue. The transition is one-way: a bind sets
// NodeName for good and a delete makes the pod terminal.
func (p *Pod) waiting() bool { return p.Phase == PodPending && p.NodeName == "" }

// nodeIsEmpty reports whether no live pod is bound to the node.
func (c *Cluster) nodeIsEmpty(n *Node) bool {
	if c.naive {
		return c.naiveNodeIsEmpty(n)
	}
	return n.livePods == 0
}

// stampEmpty sets the node's emptiness stamp (the zero time clears it)
// and keeps the empty-node bookkeeping in step. Stamps are taken from
// the clock, so a new one is never older than emptyOldest.
func (c *Cluster) stampEmpty(n *Node, at time.Time) {
	switch {
	case n.EmptySince.IsZero() && !at.IsZero():
		if c.emptyNodes == 0 {
			c.emptyOldest = at
		}
		c.emptyNodes++
	case !n.EmptySince.IsZero() && at.IsZero():
		c.emptyNodes--
	}
	n.EmptySince = at
}

// freeNodeOf updates the hosting node's emptiness stamp after a pod
// stopped consuming it.
func (c *Cluster) freeNodeOf(p *Pod) {
	if p.NodeName == "" {
		return
	}
	n, ok := c.nodes[p.NodeName]
	if !ok {
		return
	}
	if c.nodeIsEmpty(n) {
		c.stampEmpty(n, c.eng.Now())
	}
}

// unbind terminates a pod (if live) and updates node accounting. The
// caller is responsible for store removal and notifications.
func (c *Cluster) unbind(p *Pod) {
	if !p.Terminal() {
		p.Phase = PodFailed
		p.FinishedAt = c.eng.Now()
		c.release(p)
	}
	c.freeNodeOf(p)
}

// fitCursor is one request shape's first-fit resume point. Within one
// sweep free capacity only shrinks, so the prefix of nodes (or of
// hypothetical bins) that rejected a shape keeps rejecting it and every
// later pod of that shape resumes where the last one stopped: exact
// first-fit at O(shapes × nodes + pods) per sweep.
type fitCursor struct {
	shape resources.Vector
	node  int // nodes [0, node) have rejected shape
	bin   int // bins [0, bin) have rejected shape (scale-up packing only)
}

func (c *Cluster) resetCursors() {
	c.cursors = c.cursors[:0]
	clear(c.cursorIdx)
}

// cursorFor returns the sweep's cursor for a request shape. The pointer
// is valid until the next call.
func (c *Cluster) cursorFor(shape resources.Vector) *fitCursor {
	i, ok := c.cursorIdx[shape]
	if !ok {
		i = len(c.cursors)
		c.cursors = append(c.cursors, fitCursor{shape: shape})
		c.cursorIdx[shape] = i
	}
	return &c.cursors[i]
}

// fits is the indexed sweeps' placement predicate.
func (c *Cluster) fits(request, free resources.Vector) bool {
	c.fitProbes++
	return request.Fits(free)
}

// scheduleOnce is the kube-scheduler sync loop: bind pending pods to
// ready nodes with sufficient free resources, first-fit in node-age
// order; emit FailedScheduling for pods that cannot be placed. The
// controller-manager's StatefulSet reconciliation piggybacks on the
// same loop. Both halves do work only for what changed since the last
// sync (see the dirty flags on Cluster); the ticker still fires every
// period.
func (c *Cluster) scheduleOnce() {
	if c.naive {
		c.naiveScheduleOnce()
	} else {
		if c.ssDirty {
			c.ssDirty = false
			for _, ss := range c.statefulsets {
				c.reconcileStatefulSet(ss)
			}
		}
		if c.schedDirty {
			c.schedDirty = false
			c.bindPending()
		}
	}
	c.compactPending()
}

// bindPending first-fits every waiting pod, in UID order, over the
// age-sorted roster.
func (c *Cluster) bindPending() {
	nodes := c.sortedNodes()
	c.resetCursors()
	var cur *fitCursor
	// Pods a handler creates during the pass are appended past queued
	// and wait for the next one, as they did when the pass worked on a
	// snapshot.
	queued := len(c.pendingQ)
	for i := 0; i < queued; i++ {
		p := c.pendingQ[i]
		if !p.waiting() {
			continue
		}
		if cur == nil || cur.shape != p.Resources {
			cur = c.cursorFor(p.Resources)
		}
		k := cur.node
		for k < len(nodes) && !c.fits(p.Resources, nodes[k].Allocatable.Sub(nodes[k].Allocated)) {
			k++
		}
		cur.node = k
		if k < len(nodes) {
			c.bind(p, nodes[k])
		} else if !p.UnschedulableSeen {
			c.markUnschedulable(p)
		}
		if c.schedDirty {
			// A handler released capacity under the pass: rejected
			// prefixes no longer hold. The flag stays set, so the next
			// sync looks again too.
			c.resetCursors()
			cur = nil
		}
	}
}

// compactPending drops the tombstones from the pending queue; without
// any it costs one comparison.
func (c *Cluster) compactPending() {
	if len(c.pendingQ) == c.pendingLive {
		return
	}
	q := c.pendingQ
	w := 0
	for _, p := range q {
		if p.waiting() {
			q[w] = p
			w++
		}
	}
	clear(q[w:])
	c.pendingQ = q[:w]
}

// markUnschedulable records the pod's first failed placement — the
// paper's "No Available Node" state, which the cloud controller acts on.
func (c *Cluster) markUnschedulable(p *Pod) {
	p.UnschedulableSeen = true
	c.scaleDirty = true
	c.notifyPod(Modified, p, ReasonFailedScheduling)
}

// compareNodes is the roster order: creation time, then name compared
// as a string (so "node-10" sorts before "node-9" within one wave).
func compareNodes(a, b *Node) int {
	if c := a.CreatedAt.Compare(b.CreatedAt); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}

// sortedNodes returns the node roster sorted by creation time then
// name. addNode appends; the first read after it merges the newcomers
// in. Older nodes never reorder — the clock is monotonic — so only the
// tail from the newcomers' first instant on is sorted, in place: nodes
// arrive from NewCluster and the provisioning wave's events, never under
// a control loop that is walking a roster snapshot. A removal, which
// does happen under such a walk (scaleDownEmpty), is filtered out into
// a fresh backing array instead, so the older snapshot stays intact.
func (c *Cluster) sortedNodes() []*Node {
	if c.naive {
		return c.naiveSortedNodes()
	}
	if c.nodeSorted < len(c.nodeList) {
		lo, first := c.nodeSorted, c.nodeList[c.nodeSorted].CreatedAt
		for lo > 0 && c.nodeList[lo-1].CreatedAt.Equal(first) {
			lo--
		}
		slices.SortFunc(c.nodeList[lo:], compareNodes)
		c.nodeSorted = len(c.nodeList)
	}
	if c.nodeStale {
		out := make([]*Node, 0, len(c.nodes))
		for _, n := range c.nodeList {
			if c.nodes[n.Name] == n {
				out = append(out, n)
			}
		}
		c.nodeList, c.nodeSorted = out, len(out)
		c.nodeStale = false
	}
	return c.nodeList
}

func (c *Cluster) bind(p *Pod, n *Node) {
	p.NodeName = n.Name
	p.ScheduledAt = c.eng.Now()
	c.stampEmpty(n, time.Time{})
	n.Allocated = n.Allocated.Add(p.Resources)
	n.livePods++
	m := c.podsByNode[n.Name]
	if m == nil {
		m = make(map[string]*Pod)
		c.podsByNode[n.Name] = m
	}
	m[p.Name] = p
	c.pendingLive--
	c.scaleDirty = true
	c.notifyPod(Modified, p, ReasonScheduled)
	c.kubeletStart(p, n)
}
