package kubesim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// WorkerSet is a ReplicaSet-style controller: it keeps Replicas live
// pods created from a template. The HPA baseline scales worker pods
// through a WorkerSet, and — exactly as the paper criticizes — a
// scale-down deletes pods immediately, interrupting whatever jobs the
// corresponding workers are running. (HTA instead manages pod
// lifecycles directly and drains workers before removal.)
type WorkerSet struct {
	c        *Cluster
	name     string
	template PodSpec // Labels: the template's plus the set's own
	replicas int
	seq      int
	ticker   *simclock.Ticker
}

// workerSetReconcileInterval matches the kube-controller-manager's
// fast reconcile cadence.
const workerSetReconcileInterval = 5 * time.Second

// NewWorkerSet creates the controller and immediately reconciles to
// the requested replica count. A template no pod could be created from
// is refused before anything is created.
func NewWorkerSet(c *Cluster, name string, template PodSpec, replicas int) (*WorkerSet, error) {
	if err := template.validate(); err != nil {
		return nil, fmt.Errorf("kubesim: workerset %q template %w", name, err)
	}
	labels := make(map[string]string, len(template.Labels)+1)
	for k, v := range template.Labels {
		labels[k] = v
	}
	labels["workerset"] = name
	template.Labels = labels
	ws := &WorkerSet{c: c, name: name, template: template, replicas: replicas}
	ws.ticker = c.eng.Every(workerSetReconcileInterval, "workerset-"+name, ws.Reconcile)
	ws.Reconcile()
	return ws, nil
}

// Stop halts reconciliation. Existing pods are left as they are.
func (ws *WorkerSet) Stop() { ws.ticker.Stop() }

// Selector returns the label selector matching this set's pods.
func (ws *WorkerSet) Selector() map[string]string {
	return map[string]string{"workerset": ws.name}
}

// Replicas returns the desired replica count.
func (ws *WorkerSet) Replicas() int { return ws.replicas }

// SetReplicas changes the desired count and reconciles immediately.
func (ws *WorkerSet) SetReplicas(n int) {
	if n < 0 {
		n = 0
	}
	ws.replicas = n
	ws.Reconcile()
}

// LivePods returns the set's non-terminal pods sorted by UID.
func (ws *WorkerSet) LivePods() []Pod {
	var out []Pod
	for _, p := range ws.c.ListPods(ws.Selector()) {
		if !p.Terminal() {
			out = append(out, p)
		}
	}
	return out
}

// Reconcile creates or deletes pods to match the desired count. The
// periodic sync lists through the cluster's label index, so its cost
// scales with this set's pod count rather than the whole store.
func (ws *WorkerSet) Reconcile() {
	pods := ws.c.ListPods(ws.Selector())
	var live []Pod
	for _, p := range pods {
		if p.Terminal() {
			// Garbage-collect finished pods.
			_ = ws.c.DeletePod(p.Name)
			continue
		}
		live = append(live, p)
	}
	switch {
	case len(live) < ws.replicas:
		for i := len(live); i < ws.replicas; i++ {
			ws.createPod()
		}
	case len(live) > ws.replicas:
		victims := ws.deletionOrder(live)
		for i := 0; i < len(live)-ws.replicas; i++ {
			_ = ws.c.DeletePod(victims[i].Name)
		}
	}
}

func (ws *WorkerSet) createPod() {
	for {
		ws.seq++
		name := fmt.Sprintf("%s-%d", ws.name, ws.seq)
		if _, exists := ws.c.GetPod(name); exists {
			continue
		}
		spec := ws.template
		spec.Name = name
		// Creation cannot fail: the loop found a free name and the
		// template was accepted at NewWorkerSet time.
		if _, err := ws.c.CreatePod(spec); err != nil {
			panic(fmt.Sprintf("kubesim: workerset template accepted but pod refused: %v", err))
		}
		return
	}
}

// deletionOrder ranks pods for removal: not-yet-running pods first
// (cheapest to kill), then newest running pods — the default
// ReplicaSet victim ordering.
func (ws *WorkerSet) deletionOrder(live []Pod) []Pod {
	out := append([]Pod(nil), live...)
	rank := func(p Pod) int {
		if p.Phase == PodPending {
			return 0
		}
		return 1
	}
	slices.SortFunc(out, func(a, b Pod) int {
		if c := cmp.Compare(rank(a), rank(b)); c != 0 {
			return c
		}
		return cmp.Compare(b.UID, a.UID) // newest first
	})
	return out
}

// SetPodUsage attaches a usage reporter to an existing pod so the
// metrics server can observe its consumption. The glue layer calls
// this once it has spawned the worker process for the pod.
func (c *Cluster) SetPodUsage(name string, fn func() resources.Vector) error {
	p, ok := c.pods[name]
	if !ok {
		return fmt.Errorf("kubesim: pod %q not found", name)
	}
	p.usage = fn
	return nil
}
