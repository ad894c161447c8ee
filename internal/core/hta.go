package core

import (
	"fmt"
	"slices"
	"strconv"
	"time"

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

// The container images of the worker pods and the master.
const (
	workerImage = "wq-worker"
	masterImage = "wq-master"
)

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

// workerPodState tracks each worker pod HTA manages.
type workerPodState int

const (
	podCreating workerPodState = iota // created, worker not yet connected
	podActive                         // worker connected to the master
	podDraining                       // drain requested
)

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

	// pods is every worker pod HTA manages and its state; change it
	// only through setPod and dropPod, which keep the per-state counts
	// (creating, active, draining) in step.
	pods                       map[string]workerPodState
	creating, active, draining int
	podSeq                     int

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
	drainBuf  []string // drainIdle's scratch

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
		pods:        make(map[string]workerPodState),
		held:        make(map[string][]wq.TaskSpec),
		probeActive: make(map[string]bool),
	}
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
		a.createWorkerPod()
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
	if hs := a.held[r.Task.Category]; len(hs) > 0 {
		delete(a.held, r.Task.Category)
		for _, spec := range hs {
			a.master.Submit(spec)
		}
	}
	a.maybeCleanup()
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
	for _, name := range a.sortedPodNames() {
		if a.pods[name] != podDraining {
			a.drainPod(name)
		}
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

func (a *Autoscaler) createWorkerPod() {
	a.podSeq++
	var buf [32]byte
	name := string(strconv.AppendInt(append(buf[:0], "wq-worker-"...), int64(a.podSeq), 10))
	// One worker-pod per node: the pod requests the node's entire
	// allocatable vector (paper §IV-A).
	spec := kubesim.PodSpec{
		Name:      name,
		Image:     workerImage,
		Resources: a.cluster.Config().NodeAllocatable,
		Labels:    workerLabels,
	}
	if _, err := a.cluster.CreatePod(spec); err != nil {
		a.podSeq--
		return
	}
	a.setPod(name, podCreating)
}

// setPod records a managed pod's state, adding the pod if it is new.
func (a *Autoscaler) setPod(name string, st workerPodState) {
	if old, ok := a.pods[name]; ok {
		*a.stateCount(old)--
	}
	a.pods[name] = st
	*a.stateCount(st)++
}

// dropPod forgets a managed pod, if it is one.
func (a *Autoscaler) dropPod(name string) {
	if old, ok := a.pods[name]; ok {
		*a.stateCount(old)--
		delete(a.pods, name)
	}
}

// resetPods forgets every managed pod.
func (a *Autoscaler) resetPods() {
	a.pods = make(map[string]workerPodState)
	a.creating, a.active, a.draining = 0, 0, 0
}

func (a *Autoscaler) stateCount(st workerPodState) *int {
	switch st {
	case podCreating:
		return &a.creating
	case podActive:
		return &a.active
	default:
		return &a.draining
	}
}

func (a *Autoscaler) onPodEvent(ev kubesim.PodWatchEvent) {
	if a.down {
		return
	}
	name := ev.Pod.Name
	st, mine := a.pods[name]
	if !mine {
		return
	}
	switch {
	case ev.Type == kubesim.Modified && ev.Reason == kubesim.ReasonStarted:
		if st != podCreating {
			return
		}
		a.setPod(name, podActive)
		if err := a.master.AddWorker(name, ev.Pod.Resources); err == nil {
			_ = a.cluster.SetPodUsage(name, func() resources.Vector {
				return a.master.WorkerUsage(name)
			})
		}
	case ev.Type == kubesim.Deleted:
		a.dropPod(name)
		if st == podActive && ev.Reason == kubesim.ReasonKilling {
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
		if hs := a.held[t.Category]; len(hs) > 0 {
			delete(a.held, t.Category)
			for _, spec := range hs {
				a.master.Submit(spec)
			}
		}
	}
	a.maybeCleanup()
}

func (a *Autoscaler) drainPod(name string) {
	st := a.pods[name]
	switch st {
	case podCreating:
		// Never connected: delete outright.
		a.dropPod(name)
		_ = a.cluster.DeletePod(name)
		return
	case podDraining:
		return
	}
	a.setPod(name, podDraining)
	err := a.master.DrainWorker(name, func() {
		// Worker exited cleanly; the pod completes and is removed.
		if _, ok := a.pods[name]; !ok {
			return
		}
		a.dropPod(name)
		_ = a.cluster.MarkPodSucceeded(name)
		_ = a.cluster.DeletePod(name)
	})
	if err != nil {
		// Worker never connected or already gone.
		a.dropPod(name)
		_ = a.cluster.DeletePod(name)
	}
}

// WorkerPodCount returns the number of live (non-draining) worker
// pods HTA manages.
func (a *Autoscaler) WorkerPodCount() int { return a.creating + a.active }

// --- resize loop ---

func (a *Autoscaler) scheduleNext(d time.Duration) {
	if d < time.Second {
		d = time.Second
	}
	a.cycleTimer = a.eng.After(d, "hta-resize", a.resizeOnce)
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
		if a.pods[id] != podDraining {
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
		n := dec.ScaleChange - a.creating
		if room := a.cfg.MaxWorkers - a.creating - a.active; n > room {
			n = room
		}
		for i := 0; i < n; i++ {
			a.createWorkerPod()
		}
	case dec.ScaleChange < 0:
		a.drainIdle(-dec.ScaleChange)
	}
}

// sortedPodNames returns managed pod names in deterministic order.
func (a *Autoscaler) sortedPodNames() []string {
	names := make([]string, 0, len(a.pods))
	for name := range a.pods {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// drainIdle drains up to n idle workers, and surplus still-creating
// pods first, which are free to cancel: creating pods in name order,
// then idle active workers in join order. Both lists are collected
// before the first drain, which may compact the master's roster.
func (a *Autoscaler) drainIdle(n int) {
	buf := a.drainBuf[:0]
	if a.creating > 0 {
		for name, st := range a.pods {
			if st == podCreating {
				buf = append(buf, name)
			}
		}
		slices.Sort(buf)
	}
	creating := len(buf)
	buf = a.master.AppendIdleWorkers(buf)
	for i, name := range buf {
		if n == 0 {
			break
		}
		if i < creating || a.pods[name] == podActive {
			a.drainPod(name)
			n--
		}
	}
	a.drainBuf = buf[:0]
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
		WorkersActive:    a.active,
		WorkersCreating:  a.creating,
		WorkersDraining:  a.draining,
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
