package kubesim

import (
	"maps"
	"time"
)

// pullKey names one in-flight image pull: a node and an image.
type pullKey struct{ node, image string }

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
	if n.Images[p.Image] {
		c.containerStart(p, n)
		return
	}
	p.PulledImage = true
	key := pullKey{n.Name, p.Image}
	if waiters, inflight := c.pulls[key]; inflight {
		c.pulls[key] = append(waiters, p)
		return
	}
	c.pulls[key] = []*Pod{p}
	c.notifyPod(Modified, p, ReasonPulling)
	c.eng.After(c.pullDuration(), "kubelet-image-pull", func() {
		if _, alive := c.nodes[n.Name]; !alive {
			delete(c.pulls, key)
			return
		}
		waiters := c.pulls[key]
		delete(c.pulls, key)
		// Copy-on-write: node copies handed out earlier keep the
		// image set they were given.
		images := make(map[string]bool, len(n.Images)+1)
		maps.Copy(images, n.Images)
		images[p.Image] = true
		n.Images = images
		if cur, ok := c.pods[p.Name]; ok && cur == p && !p.Terminal() {
			c.notifyPod(Modified, p, ReasonPulled)
		}
		for _, w := range waiters {
			c.containerStart(w, n)
		}
	})
}

func (c *Cluster) pullDuration() time.Duration {
	secs := c.rng.Jitter(imageSizeMB/imagePullMBps, 0.05)
	return time.Duration(secs * float64(time.Second))
}

// containerStart transitions the pod to Running after the container
// start delay, provided it is still bound and alive.
func (c *Cluster) containerStart(p *Pod, n *Node) {
	c.eng.After(containerStartDelay, "kubelet-container-start", func() {
		cur, ok := c.pods[p.Name]
		if !ok || cur != p || p.Terminal() || p.NodeName != n.Name {
			return
		}
		if _, alive := c.nodes[n.Name]; !alive {
			return
		}
		p.Phase = PodRunning
		p.RunningAt = c.eng.Now()
		c.notifyPod(Modified, p, ReasonStarted)
	})
}
