// Package flow is the workflow-manager side of the stack: it walks a
// dag.Graph, submits ready tasks to a job scheduler (directly to a
// Work Queue master, or through the HTA middleware), and releases
// newly ready tasks as their dependencies complete — what Makeflow
// does once it has parsed a workflow description.
package flow

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"hta/internal/dag"
	"hta/internal/makeflow"
	"hta/internal/wq"
)

// Scheduler is the submission interface a runner drives. Both
// *wq.Master and *core.Autoscaler satisfy it.
type Scheduler interface {
	// Submit enqueues a task and returns its ID (0 when the
	// scheduler defers the task internally).
	Submit(spec wq.TaskSpec) int
	// OnComplete subscribes to task completions.
	OnComplete(fn func(wq.Result))
}

// FailureNotifier is implemented by schedulers that report permanent
// task failures (retry budget exhausted, task quarantined). Both
// *wq.Master and *core.Autoscaler satisfy it; a runner subscribes
// when its scheduler does.
type FailureNotifier interface {
	OnTaskFailed(fn func(wq.Task))
}

// SpecFunc converts a DAG node into a task spec. The runner sets the
// spec's Tag to the node ID and its Ref to the node index plus one,
// regardless of what the function returns there.
type SpecFunc func(n dag.Node) wq.TaskSpec

// Runner executes one graph on one scheduler. It serializes its own
// state internally, so completions may arrive from any goroutine —
// the TCP master delivers them from per-connection readers, the
// simulated master from the event loop.
type Runner struct {
	mu       sync.Mutex
	g        *dag.Graph
	sched    Scheduler
	spec     SpecFunc
	log      makeflow.LogSink // nil = no journal
	onDone   []func()
	done     bool
	detached bool
	failed   error

	// frontier queues the indices of ready nodes awaiting submission:
	// the initial ready set at Start, then the newly-ready nodes each
	// completion appends. Draining the queue instead of rescanning
	// g.Ready() keeps a completion O(dependents), not O(graph).
	frontier []int32
	head     int
}

// NewRunner prepares a runner; Start submits the initial frontier.
func NewRunner(g *dag.Graph, sched Scheduler, spec SpecFunc) *Runner {
	r := &Runner{g: g, sched: sched, spec: spec}
	sched.OnComplete(r.onComplete)
	if fn, ok := sched.(FailureNotifier); ok {
		fn.OnTaskFailed(r.onTaskFailed)
	}
	return r
}

// SetLog journals every rule transition to the sink (the Makeflow
// transaction log). Install it before Start; a journal write failure
// fails the workflow (a crash-consistent engine must not run ahead of
// its log).
func (r *Runner) SetLog(sink makeflow.LogSink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = sink
}

// Detach permanently disconnects the runner from its scheduler
// subscriptions: completions and failures delivered after Detach are
// ignored. A restarted engine detaches the dead incarnation's runner
// (subscriptions on the master cannot be removed) before starting a
// new one on the same master.
func (r *Runner) Detach() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.detached = true
}

// journal appends one transition; the caller holds r.mu.
func (r *Runner) journal(state makeflow.TxnState, id string) {
	if r.log == nil {
		return
	}
	if err := r.log.Append(state, id); err != nil {
		r.fail(fmt.Errorf("transaction log: %w", err))
	}
}

// OnAllDone subscribes to workflow completion. The callback runs on
// whichever goroutine delivers the final completion.
func (r *Runner) OnAllDone(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onDone = append(r.onDone, fn)
}

// Err returns the first internal consistency error, if any.
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Start submits the graph's ready frontier. A graph carrying failed
// nodes from recovery finishes with the failure recorded instead of
// stalling on them.
func (r *Runner) Start() {
	r.mu.Lock()
	if n := r.g.Counts()[dag.Failed]; n > 0 && r.failed == nil {
		r.fail(fmt.Errorf("%d node(s) recovered in failed state", n))
	}
	r.frontier = r.g.ReadyIdx(r.frontier)
	fire := r.submitReady()
	r.mu.Unlock()
	for _, fn := range fire {
		fn()
	}
}

// submitReady drains the frontier queue; the caller holds r.mu. It
// returns the completion callbacks to fire (outside the lock) when
// this call finished the workflow. After a permanent failure no new
// nodes are submitted; in-flight work drains and the runner finishes
// with its error set.
func (r *Runner) submitReady() []func() {
	for r.failed == nil && r.head < len(r.frontier) {
		i := r.frontier[r.head]
		r.head++
		if r.g.StateIdx(i) != dag.Ready {
			continue // stale entry (handled through another path)
		}
		if err := r.g.StartIdx(i); err != nil {
			r.fail(err)
			return nil
		}
		n := r.g.NodeIdx(i)
		if n.Local {
			// LOCAL rules run at the workflow manager itself
			// (instantaneous bookkeeping steps like renames);
			// they never reach the scheduler.
			var err error
			if r.frontier, err = r.g.CompleteIdx(i, r.frontier); err != nil {
				r.fail(err)
				return nil
			}
			r.journal(makeflow.TxnLocal, n.ID)
			continue
		}
		spec := r.spec(n)
		spec.Tag, spec.Ref = n.ID, i+1
		r.sched.Submit(spec)
		r.journal(makeflow.TxnSubmit, n.ID)
	}
	r.frontier = r.frontier[:0]
	r.head = 0
	return r.maybeFinish()
}

// maybeFinish returns the completion callbacks to fire when the
// workflow just finished: every node complete, or — after a permanent
// failure — every in-flight node drained. The caller holds r.mu.
func (r *Runner) maybeFinish() []func() {
	if r.done {
		return nil
	}
	if r.failed != nil {
		if r.g.Counts()[dag.Running] > 0 {
			return nil
		}
	} else if !r.g.Done() {
		return nil
	}
	r.done = true
	fire := make([]func(), len(r.onDone))
	copy(fire, r.onDone)
	return fire
}

func (r *Runner) onComplete(res wq.Result) {
	r.mu.Lock()
	if r.detached {
		r.mu.Unlock()
		return
	}
	i, ok := r.node(&res.Task)
	if !ok || r.g.StateIdx(i) != dag.Running {
		r.mu.Unlock()
		return // not ours (shared master) or already handled
	}
	var err error
	if r.frontier, err = r.g.CompleteIdx(i, r.frontier); err != nil {
		r.fail(err)
		r.mu.Unlock()
		return
	}
	r.journal(makeflow.TxnDone, res.Task.Tag)
	fire := r.submitReady()
	r.mu.Unlock()
	for _, fn := range fire {
		fn()
	}
}

// node resolves a task to its node by Ref, confirmed by tag, else by
// tag alone: a result with no Ref (wire path, restored master) or with
// another runner's colliding Ref (shared master).
func (r *Runner) node(t *wq.Task) (int32, bool) {
	if i := t.Ref - 1; i >= 0 && int(i) < r.g.Len() && r.g.IDIdx(i) == t.Tag {
		return i, true
	}
	return r.g.Index(t.Tag)
}

// onTaskFailed marks a permanently failed (quarantined) task's node
// Failed: the workflow stops submitting new nodes, lets in-flight
// tasks drain, and finishes with Err set — the DAG-node failure
// semantics of a poison task.
func (r *Runner) onTaskFailed(t wq.Task) {
	r.mu.Lock()
	if r.detached {
		r.mu.Unlock()
		return
	}
	id := t.Tag
	if r.g.State(id) != dag.Running {
		r.mu.Unlock()
		return
	}
	if err := r.g.Fail(id); err != nil {
		r.fail(err)
		r.mu.Unlock()
		return
	}
	r.journal(makeflow.TxnFail, id)
	r.fail(fmt.Errorf("node %s failed permanently after %d attempts", id, t.Attempts))
	fire := r.maybeFinish()
	r.mu.Unlock()
	for _, fn := range fire {
		fn()
	}
}

func (r *Runner) fail(err error) {
	if r.failed == nil {
		r.failed = fmt.Errorf("flow: %w", err)
	}
}

// FromSpecs builds a trivial graph (no dependencies) from a list of
// task specs — the flat bag-of-tasks shape of the paper's Fig. 2,
// Fig. 4 and I/O-bound workloads — and returns it with its SpecFunc,
// which reads specs by node index. The graph and the SpecFunc own
// specs from then on: the caller must not modify it.
//
// Node i's ID is "task<i>". The IDs are written back to back into one
// strings.Builder and each is a slice of it (a Builder never rewrites
// bytes it has handed out), so a node costs no allocation of its own.
func FromSpecs(specs []wq.TaskSpec) (*dag.Graph, SpecFunc, error) {
	const prefix = "task"
	var ids strings.Builder
	ids.Grow(len(specs) * len(prefix+strconv.Itoa(len(specs))))
	var num [20]byte
	g := dag.NewGraph()
	g.Grow(len(specs))
	for i := range specs {
		start := ids.Len()
		ids.WriteString(prefix)
		ids.Write(strconv.AppendInt(num[:0], int64(i), 10))
		if err := g.Add(dag.Node{ID: ids.String()[start:], Category: specs[i].Category}); err != nil {
			return nil, nil, err
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, nil, err
	}
	return g, func(n dag.Node) wq.TaskSpec { return specs[n.Index] }, nil
}
