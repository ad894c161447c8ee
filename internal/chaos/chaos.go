// Package chaos is a deterministic, seed-driven fault injector for
// the simulated stack. An Injector composes independent fault
// processes — Poisson node preemption and worker crash mid-task —
// each wired into the simulation through the small hooks the
// components expose (kubesim.PreemptNode and DeletePod,
// wq.KillWorker), so a fault plan is orthogonal to the scenario it
// runs against. Control-plane kill processes target the
// coordinators themselves — makeflow runner, wq master, operator,
// multi-tenant arbiter — through a harness-provided ControlPlane that
// crashes the component and restarts it from its durable state;
// tenant fault processes (TenantPlan) kill per-tenant masters and
// churn tenant membership through a harness-provided
// TenantControlPlane.
//
// Determinism: the injector draws from its own seeded RNG on the
// single-threaded event engine, so a fixed (plan, scenario, seed)
// triple replays the exact same fault sequence.
package chaos

import (
	"time"

	"hta/internal/kubesim"
	"hta/internal/simclock"
)

// PreemptionPlan describes node-preemption faults: a Poisson process
// of node reclaims.
type PreemptionPlan struct {
	// MeanInterval is the mean of the exponential inter-arrival time
	// of the always-on Poisson preemption process. 0 = off.
	MeanInterval time.Duration
	// MinNodesSpared stops preemption when at most this many ready
	// nodes remain, modelling the on-demand floor of a mixed
	// spot/on-demand pool.
	MinNodesSpared int
}

// WorkerCrashPlan describes worker-process crashes (OOM kill, segv):
// the worker disappears abruptly while its tasks run.
type WorkerCrashPlan struct {
	// MeanInterval is the Poisson mean between crashes. 0 = off.
	MeanInterval time.Duration
}

// Component identifies one control-plane process the injector can
// kill. Unlike node or worker faults, a control-plane kill targets the
// coordinator itself — the makeflow runner, the wq master, or the
// autoscaling operator — and the harness is responsible for restarting
// the component from its durable state.
type Component int

const (
	ComponentMakeflow Component = iota
	ComponentMaster
	ComponentOperator
	ComponentArbiter
)

func (c Component) String() string {
	switch c {
	case ComponentMakeflow:
		return "makeflow"
	case ComponentMaster:
		return "master"
	case ComponentOperator:
		return "operator"
	case ComponentArbiter:
		return "arbiter"
	}
	return "unknown"
}

// ControlPlaneKillPlan is one component's kill process: a Poisson
// stream of crash-and-restart events, optionally capped.
type ControlPlaneKillPlan struct {
	// MeanInterval is the Poisson mean between kills. 0 = off.
	MeanInterval time.Duration
	// MaxKills stops the process after this many *delivered* kills
	// (0 = unlimited). Attempts the harness refuses — component already
	// down, workload finished — do not count against the cap.
	MaxKills int
}

// ControlPlanePlan selects which control-plane components get killed,
// each with an independent kill process.
type ControlPlanePlan struct {
	Makeflow ControlPlaneKillPlan
	Master   ControlPlaneKillPlan
	Operator ControlPlaneKillPlan
	Arbiter  ControlPlaneKillPlan
}

// Enabled reports whether any component kill process is armed.
func (p ControlPlanePlan) Enabled() bool {
	return p.Makeflow.MeanInterval > 0 ||
		p.Master.MeanInterval > 0 ||
		p.Operator.MeanInterval > 0 ||
		p.Arbiter.MeanInterval > 0
}

// TenantPlan is the multi-tenant fault process: Poisson kills of
// per-tenant masters (the victim is drawn uniformly from the tenants
// the harness currently lists) plus scripted membership churn —
// tenants joining and leaving the arbiter at fixed offsets from
// Start. Like control-plane kills, a refused tenant kill (victim
// already down, leaving, quarantined) re-arms without counting.
type TenantPlan struct {
	// MasterKills is the Poisson kill process over tenant masters.
	MasterKills ControlPlaneKillPlan
	// JoinAt schedules tenant joins: at each offset the harness's
	// JoinTenant is called with a monotonically increasing sequence
	// number (0, 1, 2, ...).
	JoinAt []time.Duration
	// LeaveAt schedules tenant departures: at each offset the
	// harness's LeaveTenant picks a victim and offboards it.
	LeaveAt []time.Duration
}

// Enabled reports whether any tenant fault process is armed.
func (p TenantPlan) Enabled() bool {
	return p.MasterKills.MeanInterval > 0 || len(p.JoinAt) > 0 || len(p.LeaveAt) > 0
}

// Plan is a full fault plan. Zero-valued processes are disabled, so
// the zero Plan injects nothing.
type Plan struct {
	// Seed drives the injector's private RNG.
	Seed int64

	Preemption   PreemptionPlan
	WorkerCrash  WorkerCrashPlan
	ControlPlane ControlPlanePlan
	Tenant       TenantPlan
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.Preemption.MeanInterval > 0 ||
		p.WorkerCrash.MeanInterval > 0 ||
		p.ControlPlane.Enabled() ||
		p.Tenant.Enabled()
}

// Cluster is the slice of kubesim the injector drives.
type Cluster interface {
	ReadyNodeNames() []string
	PodsOnNode(name string) int
	PreemptNode(name string) error
	GetPod(name string) (kubesim.Pod, bool)
	DeletePod(name string) error
}

// Master is the slice of the wq master the worker-crash process
// drives.
type Master interface {
	Workers() []string
	WorkerBusy(id string) bool
	KillWorker(id string) error
}

// ControlPlane is the harness-side slice the control-plane kill
// process drives. CrashComponent must kill the component and arrange
// its restart from durable state; it reports whether the kill was
// actually delivered (false when the component is already down or the
// workload has finished — refused kills do not count).
type ControlPlane interface {
	CrashComponent(Component) bool
}

// TenantControlPlane is the harness-side slice the tenant fault
// processes drive. TenantIDs lists the tenants currently eligible as
// kill victims (the harness excludes leaving or already-down
// tenants as it sees fit — a kill the harness refuses re-arms
// without counting). JoinTenant admits a new scripted tenant (seq is
// the join's ordinal) and LeaveTenant offboards one; both report
// whether the churn event was actually delivered.
type TenantControlPlane interface {
	TenantIDs() []string
	CrashTenantMaster(id string) bool
	JoinTenant(seq int) bool
	LeaveTenant() bool
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	Preemptions   int
	WorkerCrashes int
	MakeflowKills int
	MasterKills   int
	OperatorKills int
	ArbiterKills  int

	TenantMasterKills int
	TenantJoins       int
	TenantLeaves      int
}

// Injector runs a Plan against attached components. All methods must
// be called from the simulation goroutine.
type Injector struct {
	eng  *simclock.Engine
	rng  *simclock.RNG
	plan Plan

	cluster Cluster
	master  Master
	cp      ControlPlane
	tcp     TenantControlPlane

	started bool
	stopped bool
	timers  []*loopTimer
	stats   Stats
}

// loopTimer is one self-rescheduling fault process; keeping the
// record lets Stop cancel whichever timer the loop currently holds.
type loopTimer struct {
	tmr simclock.Timer
}

// New builds an injector for the plan on the engine. Attach the
// components the plan targets, then call Start.
func New(eng *simclock.Engine, plan Plan) *Injector {
	return &Injector{
		eng:  eng,
		rng:  simclock.NewRNG(plan.Seed),
		plan: plan,
	}
}

// AttachCluster wires the preemption and worker-crash processes to a
// cluster.
func (in *Injector) AttachCluster(c Cluster) { in.cluster = c }

// AttachMaster wires the worker-crash process to a wq master. With a
// cluster also attached, crashes delete the worker's pod (worker IDs
// are pod names), keeping every roster in sync; without one they
// disconnect the worker directly.
func (in *Injector) AttachMaster(m Master) { in.master = m }

// AttachControlPlane wires the control-plane kill processes to a
// harness that can crash and restart coordinator components.
func (in *Injector) AttachControlPlane(cp ControlPlane) { in.cp = cp }

// AttachTenants wires the tenant kill and churn processes to a
// harness that can crash tenant masters and admit/offboard tenants.
func (in *Injector) AttachTenants(tcp TenantControlPlane) { in.tcp = tcp }

// Start arms every fault process the plan enables for the attached
// components. After a Stop, Start re-arms the whole plan with its
// scheduled offsets re-anchored at the current time; fault counts
// accumulate across re-arms.
func (in *Injector) Start() {
	if in.started && !in.stopped {
		return
	}
	in.started, in.stopped = true, false

	if in.cluster != nil && in.plan.Preemption.MeanInterval > 0 {
		in.poissonLoop(in.plan.Preemption.MeanInterval, in.preemptOne)
	}
	if in.master != nil && in.plan.WorkerCrash.MeanInterval > 0 {
		in.poissonLoop(in.plan.WorkerCrash.MeanInterval, in.crashOne)
	}
	if in.cp != nil {
		cp := in.plan.ControlPlane
		if cp.Makeflow.MeanInterval > 0 {
			in.killLoop(cp.Makeflow, ComponentMakeflow)
		}
		if cp.Master.MeanInterval > 0 {
			in.killLoop(cp.Master, ComponentMaster)
		}
		if cp.Operator.MeanInterval > 0 {
			in.killLoop(cp.Operator, ComponentOperator)
		}
		if cp.Arbiter.MeanInterval > 0 {
			in.killLoop(cp.Arbiter, ComponentArbiter)
		}
	}
	if in.tcp != nil && in.plan.Tenant.Enabled() {
		tp := in.plan.Tenant
		if tp.MasterKills.MeanInterval > 0 {
			in.tenantKillLoop(tp.MasterKills)
		}
		for i, at := range tp.JoinAt {
			seq := i
			in.after(at, func() {
				if in.tcp.JoinTenant(seq) {
					in.stats.TenantJoins++
				}
			})
		}
		for _, at := range tp.LeaveAt {
			in.after(at, func() {
				if in.tcp.LeaveTenant() {
					in.stats.TenantLeaves++
				}
			})
		}
	}
}

// Stop cancels every armed fault process. Stop is idempotent and safe
// before Start; a later Start re-arms the plan.
func (in *Injector) Stop() {
	if in.stopped {
		return
	}
	in.stopped = true
	for _, lt := range in.timers {
		lt.tmr.Stop()
	}
	in.timers = nil
}

// Stats returns the faults delivered so far.
func (in *Injector) Stats() Stats { return in.stats }

// after arms a one-shot timer tracked for Stop.
func (in *Injector) after(d time.Duration, fn func()) {
	lt := &loopTimer{}
	lt.tmr = in.eng.After(d, "chaos", func() {
		if in.stopped {
			return
		}
		fn()
	})
	in.timers = append(in.timers, lt)
}

// poissonLoop fires fn at exponentially distributed intervals until
// the injector stops.
func (in *Injector) poissonLoop(mean time.Duration, fn func()) {
	lt := &loopTimer{}
	in.timers = append(in.timers, lt)
	var arm func()
	arm = func() {
		d := time.Duration(in.rng.Exp(float64(mean)))
		lt.tmr = in.eng.After(d, "chaos-poisson", func() {
			if in.stopped {
				return
			}
			fn()
			arm()
		})
	}
	arm()
}

// killLoop is the bounded Poisson kill process for one control-plane
// component: it keeps drawing inter-arrival times until MaxKills kills
// have been *delivered* (refused attempts re-arm without counting), so
// an experiment can ask for exactly N mid-run restarts.
func (in *Injector) killLoop(p ControlPlaneKillPlan, comp Component) {
	lt := &loopTimer{}
	in.timers = append(in.timers, lt)
	delivered := 0
	var arm func()
	arm = func() {
		d := time.Duration(in.rng.Exp(float64(p.MeanInterval)))
		lt.tmr = in.eng.After(d, "chaos-kill-"+comp.String(), func() {
			if in.stopped {
				return
			}
			if in.cp.CrashComponent(comp) {
				delivered++
				switch comp {
				case ComponentMakeflow:
					in.stats.MakeflowKills++
				case ComponentMaster:
					in.stats.MasterKills++
				case ComponentOperator:
					in.stats.OperatorKills++
				case ComponentArbiter:
					in.stats.ArbiterKills++
				}
			}
			if p.MaxKills > 0 && delivered >= p.MaxKills {
				return
			}
			arm()
		})
	}
	arm()
}

// tenantKillLoop is the bounded Poisson kill process over tenant
// masters: each firing draws a victim uniformly from the harness's
// current tenant list and crashes its master. An empty list or a
// refused kill (victim down, leaving, quarantined) re-arms without
// counting, mirroring killLoop's delivered-only cap.
func (in *Injector) tenantKillLoop(p ControlPlaneKillPlan) {
	lt := &loopTimer{}
	in.timers = append(in.timers, lt)
	delivered := 0
	var arm func()
	arm = func() {
		d := time.Duration(in.rng.Exp(float64(p.MeanInterval)))
		lt.tmr = in.eng.After(d, "chaos-kill-tenant", func() {
			if in.stopped {
				return
			}
			if ids := in.tcp.TenantIDs(); len(ids) > 0 {
				victim := ids[in.rng.Intn(len(ids))]
				if in.tcp.CrashTenantMaster(victim) {
					delivered++
					in.stats.TenantMasterKills++
				}
			}
			if p.MaxKills > 0 && delivered >= p.MaxKills {
				return
			}
			arm()
		})
	}
	arm()
}

// preemptOne reclaims one ready node, preferring occupied nodes (the
// cloud reclaims capacity regardless of what runs on it, but an
// injector that only ever hits empty nodes tests nothing), and
// sparing the plan's on-demand floor.
func (in *Injector) preemptOne() {
	names := in.cluster.ReadyNodeNames()
	if len(names) <= in.plan.Preemption.MinNodesSpared {
		return
	}
	occupied := names[:0:0]
	for _, n := range names {
		if in.cluster.PodsOnNode(n) > 0 {
			occupied = append(occupied, n)
		}
	}
	pool := names
	if len(occupied) > 0 {
		pool = occupied
	}
	victim := pool[in.rng.Intn(len(pool))]
	if in.cluster.PreemptNode(victim) == nil {
		in.stats.Preemptions++
	}
}

// crashOne kills one busy worker. With a cluster attached the crash
// is delivered as a pod deletion (worker IDs are pod names), so the
// autoscaler and binder observe it like any pod death; otherwise the
// worker is disconnected from the master directly.
func (in *Injector) crashOne() {
	var busy []string
	for _, id := range in.master.Workers() {
		if in.master.WorkerBusy(id) {
			busy = append(busy, id)
		}
	}
	if len(busy) == 0 {
		return
	}
	victim := busy[in.rng.Intn(len(busy))]
	if in.cluster != nil {
		if _, ok := in.cluster.GetPod(victim); ok {
			if in.cluster.DeletePod(victim) == nil {
				in.stats.WorkerCrashes++
			}
			return
		}
	}
	if in.master.KillWorker(victim) == nil {
		in.stats.WorkerCrashes++
	}
}
