package core

import (
	"fmt"
	"time"

	"hta/internal/bind"
	"hta/internal/kubesim"
	"hta/internal/monitor"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// Config tunes the HTA middleware.
type Config struct {
	// InitialWorkers is the warm-up worker-pod count (default 3,
	// matching the paper's initial 3-node cluster).
	InitialWorkers int
	// MaxWorkers caps the worker-pod pool (default: the cluster's
	// MaxNodes quota).
	MaxWorkers int
	// DefaultCycle is the resize interval while supply and demand
	// are balanced (default 30 s).
	DefaultCycle time.Duration
	// InitTimeFallback seeds the initialization-time estimate before
	// the first live measurement (default 160 s, the paper's
	// observed GKE latency).
	InitTimeFallback time.Duration
	// DisableInitFeedback (ablation A1) makes HTA ignore measured
	// initialization times and always plan with InitTimeFallback.
	DisableInitFeedback bool
	// DisableEstimator (ablation A2) turns off per-category resource
	// estimation: tasks with unknown requirements are dispatched
	// conservatively (one per worker) for the whole run and warm-up
	// holdback is skipped.
	DisableEstimator bool
	// Panic layers the kthena-style spike fast path and steady-state
	// damping over the resize loop (see panic.go). The zero value
	// disables it, leaving the decision path byte-identical to the
	// plain per-cycle autoscaler.
	Panic PanicConfig
}

// masterImage is the container image of the master.
const masterImage = "wq-master"

func (c Config) withDefaults(cluster *kubesim.Cluster) Config {
	if c.InitialWorkers == 0 {
		c.InitialWorkers = 3
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = cluster.Config().MaxNodes
	}
	if c.DefaultCycle == 0 {
		c.DefaultCycle = 30 * time.Second
	}
	if c.InitTimeFallback == 0 {
		c.InitTimeFallback = 160 * time.Second
	}
	return c
}

// Autoscaler is the HTA middleware: it deploys the Work Queue
// framework on the cluster, relays workflow tasks to the master
// (holding back all but one probe task per unmeasured category during
// warm-up), and runs the feedback resize loop.
type Autoscaler struct {
	eng     *simclock.Engine
	cluster *kubesim.Cluster
	master  *wq.Master
	mon     *monitor.Monitor
	tracker *LifecycleTracker
	cfg     Config

	// pods is the book of every worker pod HTA manages.
	pods *bind.Pods

	// The drain and resize-cycle callbacks, bound once in New so that
	// neither a drain nor a cycle allocates a closure.
	drainedFn func(name string)
	resizeFn  func()

	held        map[string][]wq.TaskSpec // category -> held task specs
	probeActive map[string]bool

	// recentKills timestamps worker pods killed underneath HTA
	// (preemptions, crashes), pruned to the planning window; they feed
	// Algorithm 1's capacity discount and the init-time staleness
	// heuristic.
	recentKills []time.Time
	lastStale   time.Time

	// planner and workerBuf hold Algorithm 1's reusable scratch state
	// so the per-cycle estimate allocates nothing in steady state.
	planner   Planner
	workerBuf []WorkerInfo

	// panicSt is the spike fast path's bookkeeping (see panic.go);
	// inert while cfg.Panic is disabled.
	panicSt panicState

	cycleTimer    simclock.Timer
	started       bool
	shutdown      bool
	cleaned       bool
	everSubmitted bool
	warmupOver    bool
	onDone        func()

	// down marks the window between Crash and Restore (see
	// snapshot.go): subscriptions stay registered but are ignored, the
	// way events published while a controller process is dead never
	// reach it.
	down bool

	// Decisions records every resize decision for observability.
	Decisions []DecisionRecord
}

// DecisionRecord is one resize decision with its timestamp. Panic
// marks decisions taken by the spike fast path outside the per-cycle
// cadence.
type DecisionRecord struct {
	At time.Time
	Decision
	Panic bool
}

// workerLabels mark the pods HTA manages. The map is shared by every
// create, list and watch filter, none of which mutates it.
var workerLabels = map[string]string{"app": "wq-worker", "managed-by": "hta"}

// workerPrefix starts the name of every worker pod HTA creates.
const workerPrefix = "wq-worker-"

// New wires an HTA instance to a cluster and a master. Call Start to
// deploy and begin autoscaling.
func New(eng *simclock.Engine, cluster *kubesim.Cluster, master *wq.Master, cfg Config) *Autoscaler {
	cfg = cfg.withDefaults(cluster)
	a := &Autoscaler{
		eng:         eng,
		cluster:     cluster,
		master:      master,
		mon:         monitor.New(),
		cfg:         cfg,
		held:        make(map[string][]wq.TaskSpec),
		probeActive: make(map[string]bool),
	}
	// One worker-pod per node: the pod requests the node's entire
	// allocatable vector (paper §IV-A).
	a.pods = bind.NewPods(cluster, master, workerPrefix, kubesim.PodSpec{
		Image:     bind.WorkerImage,
		Resources: cluster.Config().NodeAllocatable,
		Labels:    workerLabels,
	})
	// Once the worker exits cleanly, the pod completes and is removed.
	a.drainedFn = func(name string) { a.pods.Release(name) }
	a.resizeFn = a.resizeOnce
	a.tracker = NewLifecycleTracker(cluster, workerLabels, cfg.InitTimeFallback)
	if !cfg.DisableEstimator {
		master.SetEstimator(a.mon)
	}
	master.OnComplete(a.onTaskComplete)
	master.OnTaskFailed(a.onTaskFailed)
	cluster.OnPod(a.onPodEvent)
	return a
}

// Monitor exposes the per-category estimator (for reporting).
func (a *Autoscaler) Monitor() *monitor.Monitor { return a.mon }

// Tracker exposes the initialization-time tracker.
func (a *Autoscaler) Tracker() *LifecycleTracker { return a.tracker }

// Start runs the warm-up stage: deploy the master StatefulSet and its
// services, create the initial worker pods, and begin the resize
// loop.
func (a *Autoscaler) Start() error {
	if a.started {
		return fmt.Errorf("hta: Start called twice")
	}
	a.started = true
	err := a.cluster.CreateStatefulSet(kubesim.StatefulSet{
		Name:     "wq-master",
		Replicas: 1,
		Template: kubesim.PodSpec{
			Image:  masterImage,
			Labels: map[string]string{"app": "wq-master"},
		},
	})
	if err != nil {
		return err
	}
	for _, svc := range []kubesim.Service{
		{Name: "wq-master", Selector: map[string]string{"app": "wq-master"}, Port: 9123},
		{Name: "wq-master-external", Selector: map[string]string{"app": "wq-master"}, Port: 9123},
	} {
		if err := a.cluster.CreateService(svc); err != nil {
			return err
		}
	}
	for i := 0; i < a.cfg.InitialWorkers; i++ {
		a.pods.Create()
	}
	a.scheduleNext(a.cfg.DefaultCycle)
	a.startPanicChecker()
	return nil
}

// Submit relays a workflow task toward the master. During the
// warm-up stage — until the first task of the workload completes —
// tasks of a category with neither declared resources nor completed
// measurements are held back behind a single probe task (paper §V-C
// stage 1: "HTA sends out only a portion of jobs with one job per
// category"); the rest of the category is released when its probe
// completes. After warm-up, unknown tasks go straight to the master,
// where the first of each new category still runs exclusively and is
// measured (paper §IV-A).
func (a *Autoscaler) Submit(spec wq.TaskSpec) int {
	if a.down {
		// No controller to hold tasks back: clients talk straight to the
		// master (Restore reconciles everSubmitted from the master's
		// submission count).
		return a.master.Submit(spec)
	}
	a.everSubmitted = true
	if a.cfg.DisableEstimator || a.warmupOver || !spec.Resources.IsZero() || a.mon.Known(spec.Category) {
		return a.master.Submit(spec)
	}
	if !a.probeActive[spec.Category] {
		a.probeActive[spec.Category] = true
		return a.master.Submit(spec)
	}
	a.held[spec.Category] = append(a.held[spec.Category], spec)
	return 0
}

// HeldTasks returns how many tasks are held back awaiting category
// measurements.
func (a *Autoscaler) HeldTasks() int {
	n := 0
	for _, hs := range a.held {
		n += len(hs)
	}
	return n
}

// OnComplete subscribes to task completions (delegates to the
// master; HTA's own bookkeeping runs first).
func (a *Autoscaler) OnComplete(fn func(wq.Result)) { a.master.OnComplete(fn) }

// OnTaskFailed subscribes to permanent task failures (delegates to
// the master; HTA's own bookkeeping runs first).
func (a *Autoscaler) OnTaskFailed(fn func(wq.Task)) { a.master.OnTaskFailed(fn) }

// Shutdown enters the clean-up stage: once the queue drains, all
// workers are drained, the deployment units are deleted, and onDone
// fires.
func (a *Autoscaler) Shutdown(onDone func()) {
	a.shutdown = true
	a.onDone = onDone
	a.maybeCleanup()
}

func (a *Autoscaler) onTaskComplete(r wq.Result) {
	if a.down {
		return
	}
	a.mon.Observe(r.Task.Category, r.Task.Measured, r.Task.ExecWall)
	a.warmupOver = true
	// Release any held tasks of the now-measured category.
	a.releaseHeld(r.Task.Category)
	a.maybeCleanup()
}

// releaseHeld submits a category's held tasks to the master.
func (a *Autoscaler) releaseHeld(cat string) {
	hs := a.held[cat]
	delete(a.held, cat)
	for _, spec := range hs {
		a.master.Submit(spec)
	}
}

func (a *Autoscaler) maybeCleanup() {
	if !a.shutdown || a.cleaned {
		return
	}
	s := a.master.Stats()
	if s.Waiting > 0 || s.Running > 0 || a.HeldTasks() > 0 {
		return
	}
	a.cleaned = true
	a.cycleTimer.Stop()
	a.stopPanicChecker()
	for _, name := range a.pods.Sorted() {
		a.drainPod(name)
	}
	// Best-effort removal of the deployment units.
	_ = a.cluster.DeleteStatefulSet("wq-master")
	if a.onDone != nil {
		done := a.onDone
		a.onDone = nil
		a.eng.After(0, "hta-shutdown-done", done)
	}
}

// --- pod/worker glue ---

func (a *Autoscaler) onPodEvent(ev kubesim.PodWatchEvent) {
	if a.down {
		return
	}
	name := ev.Pod.Name
	st, mine := a.pods.State(name)
	if !mine {
		return
	}
	switch {
	case ev.Type == kubesim.Modified && ev.Reason == kubesim.ReasonStarted && st == bind.PodCreating:
		a.pods.Set(name, bind.PodActive)
		_ = a.pods.Connect(name, ev.Pod.Resources)
	case ev.Type == kubesim.Deleted:
		a.pods.Forget(name)
		if st == bind.PodActive && ev.Reason == kubesim.ReasonKilling {
			// Pod killed underneath us (preemption, node failure):
			// requeue its tasks and remember the loss for planning.
			a.noteWorkerLoss()
			_ = a.master.KillWorker(name)
		}
	}
}

// failureBurstKills is how many worker losses within one planning
// window count as a burst, after which the measured initialization
// time is considered stale and re-measured from the next cold start.
const failureBurstKills = 2

// killWindow is the horizon over which worker losses stay relevant:
// the planning window itself (capacity lost longer ago than one init
// time has already been replanned around).
func (a *Autoscaler) killWindow() time.Duration {
	w := a.tracker.Latest()
	if min := 2 * a.cfg.DefaultCycle; w < min {
		w = min
	}
	return w
}

func (a *Autoscaler) pruneKills(now time.Time) {
	cutoff := now.Add(-a.killWindow())
	keep := a.recentKills[:0]
	for _, ts := range a.recentKills {
		if ts.After(cutoff) {
			keep = append(keep, ts)
		}
	}
	a.recentKills = keep
}

func (a *Autoscaler) noteWorkerLoss() {
	now := a.eng.Now()
	a.pruneKills(now)
	a.recentKills = append(a.recentKills, now)
	if len(a.recentKills) >= failureBurstKills &&
		(a.lastStale.IsZero() || now.Sub(a.lastStale) > a.killWindow()) {
		// A burst of losses means the last measured init time predates
		// the fault regime; fall back and re-measure from the next
		// cold-started pod.
		a.tracker.MarkStale()
		a.lastStale = now
	}
}

// capacityDiscount is Algorithm 1's preemption hedge: the fraction of
// current capacity assumed to vanish within the window, from the
// observed loss rate (losses / (losses + live workers)), capped at
// one half so the planner never writes off a majority of the fleet.
func (a *Autoscaler) capacityDiscount(liveWorkers int) float64 {
	k := len(a.recentKills)
	if k == 0 || liveWorkers == 0 {
		return 0
	}
	d := float64(k) / float64(k+liveWorkers)
	if d > 0.5 {
		d = 0.5
	}
	return d
}

// onTaskFailed reacts to a quarantined task. A quarantined probe can
// never report a measurement, so tasks held behind it are released
// (each runs conservatively until one completes and the category is
// measured); without this, a poison probe would strand its category
// forever.
func (a *Autoscaler) onTaskFailed(t wq.Task) {
	if a.down {
		return
	}
	if a.probeActive[t.Category] && !a.mon.Known(t.Category) {
		delete(a.probeActive, t.Category)
		a.releaseHeld(t.Category)
	}
	a.maybeCleanup()
}

func (a *Autoscaler) drainPod(name string) {
	if a.pods.Drain(name) == bind.PodActive {
		a.pods.DrainWorker(name, a.drainedFn)
	}
}

// WorkerPodCount returns the number of live (non-draining) worker
// pods HTA manages.
func (a *Autoscaler) WorkerPodCount() int { return a.pods.Live() }

// --- resize loop ---

func (a *Autoscaler) scheduleNext(d time.Duration) {
	if d < time.Second {
		d = time.Second
	}
	a.cycleTimer = a.eng.After(d, "hta-resize", a.resizeFn)
}

func (a *Autoscaler) resizeOnce() {
	if a.shutdown {
		a.maybeCleanup()
		if !a.cleaned {
			// Queue not drained yet; keep cycling.
			a.scheduleNext(a.cfg.DefaultCycle)
		}
		return
	}
	if !a.everSubmitted {
		// Warm-up stage: keep the initial fleet until the first batch
		// arrives.
		a.scheduleNext(a.cfg.DefaultCycle)
		return
	}
	dec := a.decide()
	if dec.ScaleChange < 0 && a.HeldTasks() > 0 {
		// Held tasks are demand that will be released the moment a
		// category probe completes; keep the fleet for them.
		dec.ScaleChange = 0
	}
	dec = a.governDecision(dec)
	a.Decisions = append(a.Decisions, DecisionRecord{At: a.eng.Now(), Decision: dec})
	a.apply(dec)
	a.scheduleNext(dec.NextCycle)
}

// decide assembles Algorithm 1's inputs from the live system and
// evaluates it.
func (a *Autoscaler) decide() Decision {
	return a.planner.EstimateScale(a.estimateInput())
}

// estimateInput assembles Algorithm 1's inputs from the live system —
// the master itself is the task view, the worker list is reused
// scratch; shared by the per-cycle decision and the panic fast path.
func (a *Autoscaler) estimateInput() EstimateInput {
	a.workerBuf = a.workerBuf[:0]
	a.master.ForEachWorker(func(id string, capacity resources.Vector, _ bool) {
		if st, _ := a.pods.State(id); st != bind.PodDraining {
			a.workerBuf = append(a.workerBuf, WorkerInfo{ID: id, Capacity: capacity})
		}
	})
	var estimator wq.Estimator
	if !a.cfg.DisableEstimator {
		estimator = a.mon
	}
	a.pruneKills(a.eng.Now())
	return EstimateInput{
		Now:              a.eng.Now(),
		InitTime:         a.planningInitTime(),
		DefaultCycle:     a.cfg.DefaultCycle,
		Tasks:            a.master,
		Estimator:        estimator,
		Workers:          a.workerBuf,
		WorkerTemplate:   a.cluster.Config().NodeAllocatable,
		CapacityDiscount: a.capacityDiscount(len(a.workerBuf)),
	}
}

func (a *Autoscaler) apply(dec Decision) {
	switch {
	case dec.ScaleChange > 0:
		// Pods already being created absorb part of the need.
		n := dec.ScaleChange - a.pods.Count(bind.PodCreating)
		if room := a.cfg.MaxWorkers - a.pods.Live(); n > room {
			n = room
		}
		for i := 0; i < n; i++ {
			a.pods.Create()
		}
	case dec.ScaleChange < 0:
		a.drainIdle(-dec.ScaleChange)
	}
}

// drainIdle drains up to n pods the book picks: surplus still-creating
// pods first, then idle workers.
func (a *Autoscaler) drainIdle(n int) {
	for _, name := range a.pods.SelectDrain(n) {
		a.drainPod(name)
	}
}

// Status is a point-in-time snapshot of the autoscaler, for
// dashboards and CLIs.
type Status struct {
	Stage string // "warm-up", "runtime", "clean-up", "done"

	WorkersActive   int
	WorkersCreating int
	WorkersDraining int

	QueueWaiting int
	QueueRunning int
	TasksHeld    int
	Completed    int

	InitTime         time.Duration // current planning window
	InitTimeMeasured bool
	KnownCategories  []string
	Decisions        int
}

// Status reports the autoscaler's current state.
func (a *Autoscaler) Status() Status {
	s := a.master.Stats()
	st := Status{
		WorkersActive:    a.pods.Count(bind.PodActive),
		WorkersCreating:  a.pods.Count(bind.PodCreating),
		WorkersDraining:  a.pods.Count(bind.PodDraining),
		QueueWaiting:     s.Waiting,
		QueueRunning:     s.Running,
		TasksHeld:        a.HeldTasks(),
		Completed:        a.master.CompletedCount(),
		InitTime:         a.tracker.Latest(),
		InitTimeMeasured: a.tracker.Measured(),
		KnownCategories:  a.mon.Categories(),
		Decisions:        len(a.Decisions),
	}
	switch {
	case a.cleaned:
		st.Stage = "done"
	case a.shutdown:
		st.Stage = "clean-up"
	case !a.warmupOver:
		st.Stage = "warm-up"
	default:
		st.Stage = "runtime"
	}
	return st
}

// String renders a one-line status summary.
func (s Status) String() string {
	return fmt.Sprintf("[%s] workers=%d(+%d creating, %d draining) queue=%d/%d held=%d done=%d init=%.0fs cats=%d",
		s.Stage, s.WorkersActive, s.WorkersCreating, s.WorkersDraining,
		s.QueueWaiting, s.QueueRunning, s.TasksHeld, s.Completed,
		s.InitTime.Seconds(), len(s.KnownCategories))
}
