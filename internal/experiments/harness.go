// Package experiments contains one runner per table and figure of the
// paper's evaluation, built on the simulated stack: Fig. 2 (HPA
// target-CPU sweep), Fig. 4 (worker-pod sizing), Fig. 6
// (resource-initialization latency), Fig. 10 (multistage BLAST
// supply/demand and summary table), Fig. 11 (I/O-bound workload), and
// the ablations called out in DESIGN.md. Each runner returns a report
// struct that prints the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"time"

	"hta/internal/bind"
	"hta/internal/chaos"
	"hta/internal/core"
	"hta/internal/dag"
	"hta/internal/flow"
	"hta/internal/hpa"
	"hta/internal/kubesim"
	"hta/internal/makeflow"
	"hta/internal/metrics"
	"hta/internal/netsim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// SimStart is the virtual epoch of every experiment.
var SimStart = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// SampleInterval is the metrics sampling period.
const SampleInterval = 5 * time.Second

// Workload is a DAG plus its task-spec mapping.
type Workload struct {
	Graph *dag.Graph
	Spec  flow.SpecFunc
}

// Flat wraps a bag of independent tasks as a Workload, which owns
// specs from then on (see flow.FromSpecs): do not modify it.
func Flat(specs []wq.TaskSpec) (Workload, error) {
	g, fn, err := flow.FromSpecs(specs)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Graph: g, Spec: fn}, nil
}

// RunResult captures one scenario execution.
type RunResult struct {
	Name    string
	Runtime time.Duration
	Start   time.Time
	End     time.Time

	Account     *metrics.Account
	Workers     *metrics.Series // connected workers
	IdleWorkers *metrics.Series
	Desired     *metrics.Series // autoscaler's desired worker count
	Ideal       *metrics.Series // workers an omniscient autoscaler would hold
	Nodes       *metrics.Series // ready cluster nodes

	AvgBandwidthMBps float64
	MeanCPUUtil      float64 // time-weighted busy-CPU / capacity
	InitSamples      []time.Duration
	Completed        int
	// Submitted is the total number of tasks the master accepted
	// (accounting invariant: Submitted = Completed + Quarantined for
	// runs that finish).
	Submitted int
	// Requeues counts dispatch attempts beyond each task's first —
	// work lost to killed workers.
	Requeues int

	// Failures aggregates the master's failure/recovery counters
	// (kills, requeues, fast-aborts, quarantines, lost core·s).
	Failures wq.FailureStats
	// Chaos counts the faults the injector delivered (zero value when
	// the run had no fault plan).
	Chaos chaos.Stats
	// Recovery aggregates crash/recovery activity: the master's
	// task-level counters (rescues, fences, unrescued requeues) plus,
	// for runs with control-plane kills, the harness's restart and
	// replay counters.
	Recovery metrics.RecoveryCounters

	// Overload aggregates the master's admission-control counters
	// (zero when no admission policy was configured).
	Overload metrics.OverloadCounters
	// Shed counts submissions rejected at the admission hard cap.
	Shed int
	// SojournP50/P99 are quantiles of completed-task sojourn time
	// (master submission to completion), set by the stream runners.
	SojournP50 time.Duration
	SojournP99 time.Duration
	// ScalingActions counts applied fleet resizes: HTA decisions with
	// a nonzero change (panic decisions included), HPA replica
	// changes.
	ScalingActions int
	// Panics counts HTA panic-path scale-ups (zero for other
	// scalers and for HTA with the panic policy disabled).
	Panics int

	// CategoryOutstanding tracks waiting+running tasks per category
	// over time (Fig. 10a's stage profile), when requested.
	CategoryOutstanding map[string]*metrics.Series
}

// AccumulatedWaste returns ∫RW dt over the runtime in core·s.
func (r *RunResult) AccumulatedWaste() float64 { return r.Account.AccumulatedWaste(r.End) }

// AccumulatedShortage returns ∫RSH dt over the runtime in core·s.
func (r *RunResult) AccumulatedShortage() float64 { return r.Account.AccumulatedShortage(r.End) }

// sampler periodically records the supply/demand state of a run.
type sampler struct {
	acct      *metrics.Account
	workers   *metrics.Series
	idle      *metrics.Series
	desired   *metrics.Series
	ideal     *metrics.Series
	nodes     *metrics.Series
	busyCPU   *metrics.Series
	capCPU    *metrics.Series
	maxIdeal  int // 0 = uncapped
	master    *wq.Master
	cluster   *kubesim.Cluster // may be nil (static runs)
	estimator wq.Estimator     // may be nil
	heldFn    func() int       // may be nil
	desiredFn func() int       // may be nil
	byCat     map[string]*metrics.Series
	catCounts map[string]int // reused across ticks
	// quotaCores bounds the reported shortage: RSH is the supply
	// deficit the cluster could still close, min(queue demand,
	// quota − supply). 0 = unbounded.
	quotaCores float64
}

// newSampler builds the sampler of a stack; with a cluster, shortage
// is bounded by the cluster's node quota. The scaler fills in the rest.
func newSampler(master *wq.Master, cluster *kubesim.Cluster) *sampler {
	sm := &sampler{
		acct:    metrics.NewAccount(),
		workers: metrics.NewSeries("workers"),
		idle:    metrics.NewSeries("idle"),
		desired: metrics.NewSeries("desired"),
		ideal:   metrics.NewSeries("ideal"),
		nodes:   metrics.NewSeries("nodes"),
		busyCPU: metrics.NewSeries("busy-cpu"),
		capCPU:  metrics.NewSeries("cap-cpu"),
		master:  master,
		cluster: cluster,
	}
	if cluster != nil {
		kc := cluster.Config()
		sm.quotaCores = float64(kc.MaxNodes) * kc.NodeAllocatable.CoresValue()
	}
	return sm
}

// trackCategories enables per-category outstanding-task series.
func (sm *sampler) trackCategories(cats []string) {
	sm.byCat = make(map[string]*metrics.Series, len(cats))
	sm.catCounts = make(map[string]int, len(cats))
	for _, c := range cats {
		sm.byCat[c] = metrics.NewSeries(c)
	}
}

func (sm *sampler) sample(now time.Time) {
	s := sm.master.Stats()
	supply := s.Capacity.CoresValue()
	inUse := s.InUse.CoresValue()
	shortage := sm.shortageCores()
	if sm.heldFn != nil {
		shortage += float64(sm.heldFn())
	}
	if sm.quotaCores > 0 {
		if gap := sm.quotaCores - supply; shortage > gap {
			shortage = gap
		}
		if shortage < 0 {
			shortage = 0
		}
	}
	sm.acct.Sample(now, supply, inUse, shortage)
	sm.workers.Add(now, float64(s.Workers))
	sm.idle.Add(now, float64(s.IdleWorkers))
	if sm.desiredFn != nil {
		sm.desired.Add(now, float64(sm.desiredFn()))
	}
	outstanding := s.Waiting + s.Running
	if sm.heldFn != nil {
		outstanding += sm.heldFn()
	}
	ideal := outstanding
	if sm.maxIdeal > 0 && ideal > sm.maxIdeal {
		ideal = sm.maxIdeal
	}
	sm.ideal.Add(now, float64(ideal))
	if sm.cluster != nil {
		sm.nodes.Add(now, float64(sm.cluster.ReadyNodes()))
	}
	sm.busyCPU.Add(now, float64(sm.master.BusyCPU())/1000)
	sm.capCPU.Add(now, supply)
	if sm.byCat != nil {
		counts := sm.catCounts
		for cat := range counts {
			delete(counts, cat)
		}
		sm.master.ForEachWaiting(func(t *wq.Task) { counts[t.Category]++ })
		sm.master.ForEachRunning(func(t *wq.Task) { counts[t.Category]++ })
		for cat, series := range sm.byCat {
			series.Add(now, float64(counts[cat]))
		}
	}
}

func (sm *sampler) finish(r *RunResult) {
	r.Account = sm.acct
	r.Workers = sm.workers
	r.IdleWorkers = sm.idle
	r.Desired = sm.desired
	r.Ideal = sm.ideal
	r.Nodes = sm.nodes
	capInt := sm.capCPU.IntegralUntil(r.End)
	if capInt > 0 {
		r.MeanCPUUtil = sm.busyCPU.IntegralUntil(r.End) / capInt
	}
	if sm.byCat != nil {
		r.CategoryOutstanding = sm.byCat
	}
}

// shortageCores estimates the cores desired by the waiting queue: the
// declared requirement, the category estimate, or one processor slot
// as the floor. It iterates the queue in place — the sum is an
// integer in millicores, so the visit order cannot perturb the
// result — instead of materializing a task-copy slice every tick.
func (sm *sampler) shortageCores() float64 {
	var milli int64
	sm.master.ForEachWaiting(func(t *wq.Task) {
		if !t.Resources.IsZero() {
			milli += t.Resources.MilliCPU
			return
		}
		if sm.estimator != nil {
			if v, ok := sm.estimator.EstimateResources(t.Category); ok && v.MilliCPU > 0 {
				milli += v.MilliCPU
				return
			}
		}
		milli += 1000
	})
	return float64(milli) / 1000
}

// ErrTimeout reports a scenario that did not finish within its
// simulated deadline.
type ErrTimeout struct {
	Name     string
	Deadline time.Duration
	Stats    wq.Stats
}

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("experiments: %s did not finish within %v (stats %+v)", e.Name, e.Deadline, e.Stats)
}

// --- the scenario path ---
//
// Every runner is one stack × scaler × arrivals combination executed by
// simulate. The stack is the simulated system: the event engine, an
// optional cluster and egress link, and the wq master with its
// retry and admission policies. The scaler plug-in sizes the
// worker fleet: HTA, a WorkerSet under the HPA or the
// queue-proportional scaler, or a static fleet. The arrival driver
// feeds the workload: a DAG bag through flow.Runner or timed tasks.
// Sampling, the run loop, the deadline and the result
// bookkeeping are shared, so swapping one part leaves the measurement
// of the other two untouched. The engine and every timer on it are
// dropped with the stack when a scenario returns, so nothing is
// stopped explicitly.

// stackConfig describes a scenario's stack and the run around it.
type stackConfig struct {
	kube *kubesim.Config // nil: no cluster (static fleets)
	// linkMBps > 0 puts a netsim egress link behind the master.
	linkMBps, contention, perTransfer float64
	retry                             wq.RetryPolicy
	admission                         wq.AdmissionPolicy
	// chaos, when enabled, is armed by the scaler; controlPlane
	// receives its control-plane kills.
	chaos        *chaos.Plan
	controlPlane chaos.ControlPlane
	timeout      time.Duration // simulated; 0 = 24 h
	sampleEvery  time.Duration // 0 = SampleInterval
	categories   []string      // per-category outstanding series
}

// stack is one scenario's simulated system.
type stack struct {
	cfg     stackConfig
	eng     *simclock.Engine
	cluster *kubesim.Cluster // nil without cfg.kube
	link    *netsim.Link     // nil without cfg.linkMBps
	master  *wq.Master
	inj     *chaos.Injector // nil unless armChaos armed a plan
}

func newStack(cfg stackConfig) *stack {
	st := &stack{cfg: cfg, eng: simclock.NewEngine(SimStart)}
	if cfg.kube != nil {
		kube := *cfg.kube
		if kube.Seed == 0 {
			kube.Seed = 1
		}
		st.cluster = kubesim.NewCluster(st.eng, kube)
	}
	if cfg.linkMBps > 0 {
		st.link = netsim.NewLink(st.eng, cfg.linkMBps, cfg.perTransfer)
		if cfg.contention > 0 && cfg.contention < 1 {
			st.link.SetContention(cfg.contention)
		}
	}
	st.master = wq.NewMaster(st.eng, st.link)
	st.master.SetRetryPolicy(cfg.retry)
	st.master.SetAdmissionPolicy(cfg.admission)
	return st
}

// armChaos starts the scenario's fault injector when its plan injects
// anything. Each scaler calls it at its own point of construction: the
// injector's first timers take their place in the event order there,
// and the seeded reports depend on that order.
func (st *stack) armChaos() {
	plan := st.cfg.chaos
	if plan == nil || !plan.Enabled() {
		return
	}
	st.inj = chaos.New(st.eng, *plan)
	if st.cluster != nil {
		st.inj.AttachCluster(st.cluster)
	}
	st.inj.AttachMaster(st.master)
	if st.cfg.controlPlane != nil {
		st.inj.AttachControlPlane(st.cfg.controlPlane)
	}
	st.inj.Start()
}

// scaler is the plug-in that sizes a scenario's worker fleet.
type scaler interface {
	// attach builds the scaler on st, arming st's fault injector on the
	// way, points sm at the scaler's signals, and returns the target
	// arrivals submit to.
	attach(st *stack, sm *sampler) (flow.Scheduler, error)
	// shutdown runs the scaler's clean-up stage once the workload is
	// done, then calls done.
	shutdown(done func())
	// report copies the scaler's counters into a finished run's result.
	report(res *RunResult) error
}

// arrivals is the plug-in that feeds a scenario's workload.
type arrivals interface {
	// start submits or schedules the workload. The driver ends the run
	// through r.finish or r.finishThroughCleanup once every arrival
	// reached its end, or aborts it through r.fail.
	start(r *run)
	// report checks the workload of a finished run and copies the
	// driver's own fields into res.
	report(res *RunResult) error
}

// run is a scenario in progress, as its arrival driver sees it.
type run struct {
	*stack
	target   flow.Scheduler
	scaler   scaler
	res      *RunResult
	ended    bool  // the workload is done; the scaler may still be cleaning up
	finished bool  // the run is over
	failed   error // aborts the run
}

// finish ends the run now.
func (r *run) finish() {
	r.end()
	r.finished = true
}

// finishThroughCleanup ends the workload now and the run once the
// scaler's clean-up stage completes.
func (r *run) finishThroughCleanup() {
	r.end()
	r.scaler.shutdown(func() { r.finished = true })
}

func (r *run) end() {
	r.ended = true
	r.res.End = r.eng.Now()
	r.res.Runtime = r.eng.Elapsed()
}

// fail aborts the run; the first error wins.
func (r *run) fail(err error) {
	if r.failed == nil {
		r.failed = err
	}
}

// simulate executes one stack × scaler × arrivals combination.
func simulate(name string, cfg stackConfig, sc scaler, arr arrivals) (*RunResult, error) {
	st := newStack(cfg)
	sm := newSampler(st.master, st.cluster)
	target, err := sc.attach(st, sm)
	if err != nil {
		return nil, err
	}
	if len(cfg.categories) > 0 {
		sm.trackCategories(cfg.categories)
	}
	every := cfg.sampleEvery
	if every <= 0 {
		every = SampleInterval
	}
	st.eng.Every(every, "sampler", func() { sm.sample(st.eng.Now()) })

	res := &RunResult{Name: name, Start: st.eng.Now()}
	countRequeues(st.master, res)
	r := &run{stack: st, target: target, scaler: sc, res: res}
	sm.sample(st.eng.Now())
	arr.start(r)
	timeout := cfg.timeout
	if timeout == 0 {
		timeout = 24 * time.Hour
	}
	deadline := SimStart.Add(timeout)
	st.eng.RunWhile(func() bool { return !r.finished && r.failed == nil && st.eng.Now().Before(deadline) })
	if r.failed != nil {
		return nil, r.failed
	}
	if !r.finished {
		return nil, &ErrTimeout{Name: name, Deadline: timeout, Stats: st.master.Stats()}
	}
	res.Completed = st.master.CompletedCount()
	captureFailures(res, st.master, st.inj)
	if err := arr.report(res); err != nil {
		return nil, err
	}
	if err := sc.report(res); err != nil {
		return nil, err
	}
	sm.finish(res)
	if st.link != nil {
		res.AvgBandwidthMBps = st.link.Stats().AvgBandwidth
	}
	return res, nil
}

// entrant is one scaler of a comparison, under its run name.
type entrant struct {
	name string
	sc   scaler
}

// compare runs every entrant on its own stack built from cfg,
// concurrently, each fed the arrivals feed builds for its scaler, and
// returns the runs in entrant order.
func compare(cfg stackConfig, entrants []entrant, feed func(scaler) (arrivals, error)) ([]*RunResult, error) {
	runs := make([]*RunResult, len(entrants))
	err := Parallel(len(entrants), func(i int) error {
		arr, err := feed(entrants[i].sc)
		if err != nil {
			return err
		}
		runs[i], err = simulate(entrants[i].name, cfg, entrants[i].sc, arr)
		return err
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// declared reports whether a workload fed to sc declares its task
// requirements. HTA measures undeclared categories itself; every other
// scaler is told them, so a comparison isolates the autoscaler, not
// the estimator.
func declared(sc scaler) bool {
	_, hta := sc.(*htaScaler)
	return !hta
}

// captureFailures copies the run's failure/recovery counters into res.
func captureFailures(res *RunResult, master *wq.Master, inj *chaos.Injector) {
	res.Failures = master.FailureStats()
	res.Submitted = master.SubmittedCount()
	res.Recovery = master.RecoveryStats()
	res.Overload = master.OverloadStats()
	res.Shed = master.ShedCount()
	if inj != nil {
		res.Chaos = inj.Stats()
	}
}

// countRequeues subscribes to the master and accumulates re-dispatch
// counts into res.
func countRequeues(master *wq.Master, res *RunResult) {
	master.OnComplete(func(r wq.Result) {
		if r.Task.Attempts > 1 {
			res.Requeues += r.Task.Attempts - 1
		}
	})
}

// bag runs one DAG through a flow.Runner and ends the run through the
// scaler's clean-up stage.
type bag struct {
	wl     Workload
	log    makeflow.LogSink // nil: no transaction journal
	runner *flow.Runner
}

func (b *bag) start(r *run) {
	b.runner = flow.NewRunner(b.wl.Graph, r.target, b.wl.Spec)
	if b.log != nil {
		b.runner.SetLog(b.log)
	}
	b.runner.OnAllDone(r.finishThroughCleanup)
	b.runner.Start()
}

func (b *bag) report(*RunResult) error { return b.runner.Err() }

// --- HTA scenario ---

// HTAOptions configures an HTA run.
type HTAOptions struct {
	Kube        kubesim.Config
	HTA         core.Config
	LinkMBps    float64
	PerTransfer float64
	Timeout     time.Duration // simulated; default 24 h
	// Retry is the master's recovery policy (zero = infinite retries,
	// no backoff, no fast-abort — the pre-fault-tolerance behavior).
	Retry wq.RetryPolicy
	// Admission bounds the master's waiting queue (zero = unbounded,
	// the classic work queue).
	Admission wq.AdmissionPolicy
	// Chaos, when set and enabled, injects faults into the run.
	Chaos *chaos.Plan
	// SampleEvery overrides the sampler period (0 = SampleInterval).
	SampleEvery time.Duration
}

func (o HTAOptions) stack() stackConfig {
	return stackConfig{
		kube:        &o.Kube,
		linkMBps:    o.LinkMBps,
		perTransfer: o.PerTransfer,
		retry:       o.Retry,
		admission:   o.Admission,
		chaos:       o.Chaos,
		timeout:     o.Timeout,
		sampleEvery: o.SampleEvery,
	}
}

// RunHTA executes the workload through the full HTA stack.
func RunHTA(name string, wl Workload, opt HTAOptions) (*RunResult, error) {
	return simulate(name, opt.stack(), &htaScaler{cfg: opt.HTA}, &bag{wl: wl})
}

// htaScaler puts the HTA autoscaler between the arrivals and the
// master; it grows and drains the cluster's worker pods itself.
type htaScaler struct {
	cfg core.Config
	a   *core.Autoscaler
}

func (s *htaScaler) attach(st *stack, sm *sampler) (flow.Scheduler, error) {
	s.a = core.New(st.eng, st.cluster, st.master, s.cfg)
	if err := s.a.Start(); err != nil {
		return nil, err
	}
	st.armChaos()
	sm.maxIdeal = st.cfg.kube.MaxNodes
	sm.estimator = s.a.Monitor()
	sm.heldFn = s.a.HeldTasks
	sm.desiredFn = s.a.WorkerPodCount
	return s.a, nil
}

func (s *htaScaler) shutdown(done func()) { s.a.Shutdown(done) }

func (s *htaScaler) report(res *RunResult) error {
	res.InitSamples = s.a.Tracker().Samples()
	res.Panics = s.a.PanicCount()
	for _, d := range s.a.Decisions {
		if d.ScaleChange != 0 {
			res.ScalingActions++
		}
	}
	return nil
}

// --- HPA scenario ---

// HPAOptions configures a baseline run scaled by the Horizontal Pod
// Autoscaler over a WorkerSet of fixed-size worker pods.
type HPAOptions struct {
	Kube            kubesim.Config
	HPA             hpa.Config
	PodResources    resources.Vector
	InitialReplicas int
	LinkMBps        float64
	Contention      float64
}

// RunHPA executes the workload on an HPA-scaled worker fleet.
func RunHPA(name string, wl Workload, opt HPAOptions) (*RunResult, error) {
	return simulate(name, stackConfig{
		kube:       &opt.Kube,
		linkMBps:   opt.LinkMBps,
		contention: opt.Contention,
	}, hpaScaler(opt.HPA, opt.PodResources, opt.InitialReplicas), &bag{wl: wl})
}

// hpaScaler is the HPA over a WorkerSet of pod-sized workers; a zero
// pod is one core, and zero replicas start three.
func hpaScaler(cfg hpa.Config, pod resources.Vector, replicas int) *workerSet {
	if pod.IsZero() {
		pod = resources.New(1, 4096, 10000)
	}
	if replicas == 0 {
		replicas = 3
	}
	return &workerSet{pod: pod, replicas: replicas, maxReplicas: cfg.MaxReplicas,
		control: func(st *stack, set *kubesim.WorkerSet) (func() int, func() int) {
			h := hpa.New(st.cluster, set, cfg)
			return func() int { return h.LastDesired }, h.Actions
		}}
}

// workerSet is a WorkerSet of fixed-size worker pods bound to the
// master and resized by a replica controller: the HPA or the
// queue-proportional scaler. Arrivals submit to the master directly.
type workerSet struct {
	pod         resources.Vector // zero: node-sized
	replicas    int              // initial
	maxReplicas int
	// control starts the replica controller on set. It returns the
	// controller's latest desired replica count and, when the
	// controller counts them, its applied resizes (else nil).
	control func(st *stack, set *kubesim.WorkerSet) (desired, actions func() int)
	binder  *bind.Binder
	actions func() int
}

func (s *workerSet) attach(st *stack, sm *sampler) (flow.Scheduler, error) {
	labels := map[string]string{"app": "wq-worker"}
	s.binder = bind.Workers(st.cluster, st.master, labels)
	st.armChaos()
	pod := s.pod
	if pod.IsZero() {
		pod = st.cluster.Config().NodeAllocatable
	}
	set, err := kubesim.NewWorkerSet(st.cluster, "wq-workers",
		kubesim.PodSpec{Image: "wq-worker", Resources: pod, Labels: labels}, s.replicas)
	if err != nil {
		return nil, err
	}
	sm.maxIdeal = s.maxReplicas
	sm.desiredFn, s.actions = s.control(st, set)
	return st.master, nil
}

func (s *workerSet) shutdown(done func()) { done() }

func (s *workerSet) report(res *RunResult) error {
	if s.actions != nil {
		res.ScalingActions = s.actions()
	}
	return s.binder.Err()
}

// --- static scenario ---

// StaticOptions configures a fixed worker fleet (no autoscaler, no
// cluster simulation) — the worker-sizing study of Fig. 4 and the
// ideal baseline of Fig. 2.
type StaticOptions struct {
	Workers         int
	WorkerResources resources.Vector
	LinkMBps        float64
	Contention      float64
}

// RunStatic executes the workload on a fixed fleet.
func RunStatic(name string, wl Workload, opt StaticOptions) (*RunResult, error) {
	return simulate(name, stackConfig{
		linkMBps:   opt.LinkMBps,
		contention: opt.Contention,
	}, staticFleet{workers: opt.Workers, capacity: opt.WorkerResources}, &bag{wl: wl})
}

// staticFleet connects a fixed fleet of workers to the master before
// the run starts; arrivals submit to the master directly.
type staticFleet struct {
	workers  int
	capacity resources.Vector
}

func (s staticFleet) attach(st *stack, sm *sampler) (flow.Scheduler, error) {
	for i := 0; i < s.workers; i++ {
		if err := st.master.AddWorker(fmt.Sprintf("w%d", i+1), s.capacity); err != nil {
			return nil, err
		}
	}
	st.armChaos()
	sm.maxIdeal = s.workers
	return st.master, nil
}

func (staticFleet) shutdown(done func()) { done() }

func (staticFleet) report(*RunResult) error { return nil }
