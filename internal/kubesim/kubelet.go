package kubesim

import "time"

// pullKey names a node and an image: the key of one in-flight pull and
// of one node image cache entry.
type pullKey struct{ node, image string }

// pullWaiters lists the pods waiting for one pull, in bind order,
// linked through Pod.nextWaiter. The first is the pod that started it.
type pullWaiters struct{ head, tail *Pod }

// hasImage reports whether the node holds the image.
func (c *Cluster) hasImage(n *Node, image string) bool {
	_, ok := c.images[pullKey{n.Name, image}]
	return ok
}

// cacheImage records that the node now holds the image.
func (c *Cluster) cacheImage(n *Node, image string) {
	c.images[pullKey{n.Name, image}] = n.lastImage
	n.lastImage = image
	n.images++
}

// dropImages forgets the images of a node leaving the fleet.
func (c *Cluster) dropImages(n *Node) {
	image := n.lastImage
	for range n.images {
		key := pullKey{n.Name, image}
		image = c.images[key]
		delete(c.images, key)
	}
	n.images, n.lastImage = 0, ""
}

// kubeletStart drives a freshly bound pod through the node-local part
// of its lifecycle: pull the container image if the node does not
// have it ("No Container Image" in the paper's worker-pod lifecycle),
// then start the container after a short delay.
//
// Node.Allocated and the live-pod count were already charged at bind
// time (requests are reserved the moment the scheduler binds, exactly
// as kube-scheduler accounts them), so the Pulling→Started transitions
// below deliberately leave the incremental accounting untouched; the
// charge is reversed once, in Cluster.release, when the pod leaves the
// live set.
func (c *Cluster) kubeletStart(p *Pod, n *Node) {
	if c.hasImage(n, p.Image) {
		c.containerStart(p)
		return
	}
	p.PulledImage = true
	key := pullKey{n.Name, p.Image}
	if w, inflight := c.pulls[key]; inflight {
		w.tail.nextWaiter = p
		w.tail = p
		c.pulls[key] = w
		return
	}
	c.pulls[key] = pullWaiters{head: p, tail: p}
	c.notifyPod(Modified, p, ReasonPulling)
	c.eng.AfterArg(c.pullDuration(), "kubelet-image-pull", c.imagePulledFn, p)
}

// imagePulled ends the image pull the pod p started on its node and
// schedules the container start of every pod that waited for it, in
// bind order; a waiter deleted meanwhile is dropped by
// containerStarted. A pod's node is fixed once it is bound, and node
// names are never reused, so p names the pull (its node and image) and
// the node it lands on.
func (c *Cluster) imagePulled(a any) {
	p := a.(*Pod)
	key := pullKey{p.NodeName, p.Image}
	n, alive := c.nodes[p.NodeName]
	waiters := c.pulls[key]
	delete(c.pulls, key)
	if !alive {
		return
	}
	c.cacheImage(n, p.Image)
	if cur, ok := c.pods[p.Name]; ok && cur == p && !p.Terminal() {
		c.notifyPod(Modified, p, ReasonPulled)
	}
	for w := waiters.head; w != nil; {
		next := w.nextWaiter
		w.nextWaiter = nil
		c.containerStart(w)
		w = next
	}
}

func (c *Cluster) pullDuration() time.Duration {
	secs := c.rng.Jitter(imageSizeMB/imagePullMBps, 0.05)
	return time.Duration(secs * float64(time.Second))
}

// containerStart transitions the pod to Running after the container
// start delay, provided it is still bound and alive.
func (c *Cluster) containerStart(p *Pod) {
	c.eng.AfterArg(containerStartDelay, "kubelet-container-start", c.containerStartedFn, p)
}

// containerStarted ends containerStart's delay. The pod must still be
// the stored pod under its name and not terminal, and its node still
// alive. The scheduler sets NodeName once, at bind, so the pod is
// still bound to the node it was started on.
func (c *Cluster) containerStarted(a any) {
	p := a.(*Pod)
	cur, ok := c.pods[p.Name]
	if !ok || cur != p || p.Terminal() {
		return
	}
	if _, alive := c.nodes[p.NodeName]; !alive {
		return
	}
	p.Phase = PodRunning
	p.RunningAt = c.eng.Now()
	c.notifyPod(Modified, p, ReasonStarted)
}
