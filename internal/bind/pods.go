package bind

import (
	"slices"
	"strconv"
	"strings"

	"hta/internal/kubesim"
	"hta/internal/names"
	"hta/internal/resources"
	"hta/internal/wq"
)

// WorkerImage is the container image of the worker pods HTA and the
// arbiter create.
const WorkerImage = "wq-worker"

// PodState is where a managed worker pod is in its life.
type PodState int8

const (
	PodCreating PodState = iota // created, worker not yet connected
	PodActive                   // worker connected to the master
	PodDraining                 // drain requested
)

// Pods is the book of the worker pods one controller manages for one
// master — HTA keeps one, the arbiter one per tenant, Workers one for
// the pods it connects. It holds every pod's state with the per-state
// counts kept in step, and runs the glue all of them share: create a
// pod from the template, connect its worker once it runs, drain it,
// release it once its worker has exited. Like the cluster and master
// it binds, a book is driven from the single simulation goroutine.
type Pods struct {
	cluster *kubesim.Cluster
	master  *wq.Master
	prefix  string
	spec    kubesim.PodSpec

	state map[string]PodState
	count [3]int // per PodState
	seq   int
	names names.Chunks // Create's pod names
	buf   []string     // SelectDrain's scratch
}

// NewPods returns an empty book. Create names pods prefix plus a
// sequence number and makes them from template; the template's labels
// also find the book's pods again after a restart.
func NewPods(cluster *kubesim.Cluster, master *wq.Master, prefix string, template kubesim.PodSpec) *Pods {
	return &Pods{cluster: cluster, master: master, prefix: prefix, spec: template, state: make(map[string]PodState)}
}

// Labels returns the labels the book's pods carry; do not mutate it.
func (b *Pods) Labels() map[string]string { return b.spec.Labels }

// Seq returns the name sequence: the number of the newest pod.
func (b *Pods) Seq() int { return b.seq }

// Len returns how many pods are booked.
func (b *Pods) Len() int { return len(b.state) }

// Count returns how many booked pods are in state st.
func (b *Pods) Count(st PodState) int { return b.count[st] }

// Live returns how many pods are creating or active: the pool's size.
func (b *Pods) Live() int { return b.count[PodCreating] + b.count[PodActive] }

// State returns a pod's state and whether it is booked.
func (b *Pods) State(name string) (PodState, bool) {
	st, ok := b.state[name]
	return st, ok
}

// Set books a pod in state st, adding it if it is new.
func (b *Pods) Set(name string, st PodState) {
	if old, ok := b.state[name]; ok {
		b.count[old]--
	}
	b.state[name] = st
	b.count[st]++
}

// Forget drops a pod from the book and reports whether it was booked.
func (b *Pods) Forget(name string) bool {
	st, ok := b.state[name]
	if ok {
		b.count[st]--
		delete(b.state, name)
	}
	return ok
}

// Reset forgets every pod and sets the name sequence to seq: 0 when a
// controller dies, the checkpoint's when it restarts.
func (b *Pods) Reset(seq int) {
	clear(b.state)
	b.count = [3]int{}
	b.seq = seq
}

// Sorted returns the booked pod names in name order, in a new slice.
func (b *Pods) Sorted() []string {
	names := make([]string, 0, len(b.state))
	for name := range b.state {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Create makes the next pod from the template and books it creating.
// It returns the pod's name, or false if the cluster refused the pod.
func (b *Pods) Create() (string, bool) {
	spec := b.spec
	spec.Name = b.names.Numbered(b.prefix, b.seq+1)
	if _, err := b.cluster.CreatePod(spec); err != nil {
		return "", false
	}
	b.seq++
	b.Set(spec.Name, PodCreating)
	return spec.Name, true
}

// Connect joins a pod's worker to the master with the pod's resources
// and has the cluster's metrics server scrape the worker's usage.
func (b *Pods) Connect(name string, res resources.Vector) error {
	if err := b.master.AddWorker(name, res); err != nil {
		return err
	}
	b.ReportUsage(name)
	return nil
}

// ReportUsage has the metrics server scrape a connected worker's usage:
// the master answers for the pod by name, so no per-pod closure is
// made.
func (b *Pods) ReportUsage(name string) {
	_ = b.cluster.SetPodUsage(name, b.master)
}

// Drain takes a booked pod out of service and returns the state it was
// in. A creating pod never connected: it is deleted and forgotten. An
// active pod is booked draining; hand its worker to DrainWorker. A
// draining or unbooked pod is left alone, and Drain returns PodDraining.
func (b *Pods) Drain(name string) PodState {
	st, ok := b.state[name]
	switch {
	case !ok:
		return PodDraining
	case st == PodCreating:
		b.Forget(name)
		_ = b.cluster.DeletePod(name)
	default:
		b.Set(name, PodDraining)
	}
	return st
}

// DrainWorker asks a draining pod's worker to finish its running tasks
// and exit, calling done with the pod's name once it has; done
// normally ends in Release. A controller binds one done for all of its
// pods, so a drain allocates nothing. If the master no longer knows
// the worker, the pod is deleted and forgotten at once and DrainWorker
// returns false.
func (b *Pods) DrainWorker(name string, done func(name string)) bool {
	if b.master.DrainWorker(name, done) != nil {
		b.Forget(name)
		_ = b.cluster.DeletePod(name)
		return false
	}
	return true
}

// Release forgets a pod whose worker has exited, then completes and
// deletes it. It reports whether the pod was booked; if not, it does
// nothing.
func (b *Pods) Release(name string) bool {
	if !b.Forget(name) {
		return false
	}
	_ = b.cluster.MarkPodSucceeded(name)
	_ = b.cluster.DeletePod(name)
	return true
}

// SelectDrain picks up to n pods to let go of when the pool shrinks:
// creating pods first, in name order, as cancelling them costs
// nothing, then active pods with idle workers, in the order they
// joined the master. The whole choice is made before the caller drains
// any of it, since a drain may compact the master's roster. The result
// is scratch, valid until the next call.
func (b *Pods) SelectDrain(n int) []string {
	if n <= 0 {
		return nil
	}
	buf := b.buf[:0]
	if b.count[PodCreating] > 0 {
		for name, st := range b.state {
			if st == PodCreating {
				buf = append(buf, name)
			}
		}
		slices.Sort(buf)
	}
	picked := min(len(buf), n)
	if picked < n {
		buf = b.master.AppendIdleWorkers(buf)
		for _, id := range buf[picked:] {
			if picked == n {
				break
			}
			if st, ok := b.state[id]; ok && st == PodActive {
				buf[picked] = id
				picked++
			}
		}
	}
	b.buf = buf[:picked]
	return b.buf
}

// Adopt books a pod listed back from the cluster that the book does
// not hold by its phase — Pending as creating, Running as active — and
// reports whether it did; connecting the worker is the caller's call.
// Every pod shown advances the name sequence past the pod's number, so
// a restarted controller never reuses a live name.
func (b *Pods) Adopt(pod kubesim.Pod) bool {
	if rest, ok := strings.CutPrefix(pod.Name, b.prefix); ok {
		if seq, err := strconv.Atoi(rest); err == nil && seq > b.seq {
			b.seq = seq
		}
	}
	if _, booked := b.state[pod.Name]; booked {
		return false
	}
	switch pod.Phase {
	case kubesim.PodPending:
		b.Set(pod.Name, PodCreating)
	case kubesim.PodRunning:
		b.Set(pod.Name, PodActive)
	default:
		return false
	}
	return true
}
