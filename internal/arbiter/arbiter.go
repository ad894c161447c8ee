// Package arbiter multiplexes many wq masters — one per tenant, each
// with its own queue, monitor and HTA planner — onto a single kubesim
// cluster. A cluster-level arbiter divides the shared worker-pod
// capacity across tenants by weighted max-min fair share with
// per-tenant quota floors/ceilings and priority classes (see
// allocate.go for the exact allocation semantics).
//
// The control loop is built to stay cheap at thousands of tenants: a
// naive arbiter re-runs Algorithm 1 per tenant per cycle and collapses
// at O(T × planner). This one is amortized O(active tenants):
//
//   - Per-tenant demand digests. Each tenant owns a category-
//     compressed core.Planner whose scratch is memoized across
//     cycles; the digest — the number of node-sized workers that
//     would hold the tenant's current running + waiting set — is
//     cached between cycles.
//   - Dirty-tenant tracking. The digest is evaluated with a zero Now
//     and a zero-length window, which makes it a pure function of the
//     master state guarded by wq.(*Master).Rev(): queue contents,
//     non-draining roster, estimator state. A tenant is re-planned
//     only when its revision moved (or the arbiter itself drained one
//     of its workers, the one roster change Rev does not cover);
//     everything else is served from the memo.
//   - One allocation pass over packed int64 demand vectors with a
//     pooled scratch arena — zero heap allocations per steady-state
//     cycle (asserted by TestArbiterCycleZeroAlloc).
//
// The naive full-replan arbiter is retained in reference.go and
// pinned byte-identical by the differential suite and fuzz target, per
// the house style.
package arbiter

import (
	"fmt"
	"slices"
	"time"

	"hta/internal/core"
	"hta/internal/kubesim"
	"hta/internal/monitor"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// Policy selects how the arbiter divides capacity.
type Policy int

const (
	// PolicyFairShare is weighted max-min water-filling with quota
	// floors/ceilings and priority classes.
	PolicyFairShare Policy = iota
	// PolicyGreedy models a single shared autoscaler with no notion
	// of tenancy: demands are satisfied in tenant index order until
	// capacity runs out (the E-J baseline). Ceilings still apply.
	PolicyGreedy
)

// Config tunes the arbiter.
type Config struct {
	// Cycle is the arbitration interval (default 30 s).
	Cycle time.Duration
	// TotalWorkers is the cluster-wide worker-pod budget the arbiter
	// divides (default: the cluster's MaxNodes quota — one node-sized
	// worker pod per node).
	TotalWorkers int
	// Policy selects the allocation policy (default PolicyFairShare).
	Policy Policy
	// WorkerImage is the worker-pod container image (default
	// "wq-worker").
	WorkerImage string
	// Quarantine configures the crash-looping-tenant breaker
	// (lifecycle.go). The zero value disables it.
	Quarantine QuarantinePolicy
}

// TenantConfig describes one tenant's share of the cluster.
type TenantConfig struct {
	// ID names the tenant; it must be unique and non-empty (it
	// prefixes the tenant's worker-pod names).
	ID string
	// Weight is the tenant's fair-share weight (default 1, clamped to
	// [1, 1<<20]).
	Weight int
	// Priority is the tenant's class: higher classes are allocated
	// before lower ones see any discretionary capacity.
	Priority int
	// QuotaMin is the floor: workers guaranteed (when demanded)
	// before any discretionary allocation.
	QuotaMin int
	// QuotaMax is the ceiling: the tenant is never granted more
	// workers than this (0 = unlimited).
	QuotaMax int
}

// workerPodState tracks each worker pod the arbiter manages, same
// tri-state as the single-tenant autoscaler's.
type workerPodState int

const (
	podCreating workerPodState = iota // created, worker not yet connected
	podActive                         // worker connected to the tenant's master
	podDraining                       // drain requested
)

// Tenant is one tenant's control-plane state: its master, monitor,
// memoized demand digest and managed pods.
type Tenant struct {
	cfg    TenantConfig
	idx    int
	master *wq.Master
	mon    *monitor.Monitor

	// planner holds the tenant's Algorithm 1 scratch, reused across
	// cycles (the category-compressed digest engine).
	planner core.Planner
	// lastRev is the master revision the memoized demand was computed
	// at; dirty forces a re-plan for state changes Rev does not cover
	// (arbiter-initiated drains).
	lastRev uint64
	dirty   bool
	demand  int64

	pods                       map[string]workerPodState
	podSeq                     int
	creating, active, draining int

	// Lifecycle state (lifecycle.go): leaving marks an offboarding
	// tenant (demand forced to zero, pods draining, pending work
	// settled as quarantined); removed marks the tenant struct as
	// detached from the arbiter. The quarantine fields implement the
	// crash-loop breaker; masterSnap/reattach hold the PR-4 crash
	// state between CrashTenantMaster and RestoreTenantMaster.
	leaving     bool
	removed     bool
	settleArmed bool
	quarUntil   time.Time
	quarCount   int
	crashLog    []time.Time
	masterSnap  wq.Snapshot
	reattach    []wq.WorkerReattach

	// wiBuf is the digest's worker-list scratch, reused across cycles.
	wiBuf []core.WorkerInfo
}

// Master returns the tenant's work-queue master (submit tasks here).
func (t *Tenant) Master() *wq.Master { return t.master }

// ID returns the tenant's identifier.
func (t *Tenant) ID() string { return t.cfg.ID }

// WorkerPodCount returns the tenant's live (creating + active) worker
// pods.
func (t *Tenant) WorkerPodCount() int { return t.creating + t.active }

// Stats counts the arbiter's work, exposing the incremental path's
// effectiveness: Replans is how many demand digests were recomputed,
// Skipped how many were served from the memo.
type Stats struct {
	Cycles      int
	Replans     int
	Skipped     int
	PodsCreated int
	PodsDrained int

	// Lifecycle and recovery counters.
	TenantsRemoved       int // tenants offboarded or removed
	TenantCrashes        int // tenant-master crashes delivered via CrashTenantMaster
	QuarantineTrips      int // crash-loop breaker trips
	Restores             int // arbiter Restore calls
	ReconcileCorrections int // divergences fixed by restore-time reconciles
	FencedCallbacks      int // stale drain callbacks dropped by the generation fence
}

// Arbiter divides one cluster's worker capacity across tenants.
type Arbiter struct {
	eng     *simclock.Engine
	cluster *kubesim.Cluster
	cfg     Config
	// naive routes every cycle through the retained full-replan
	// reference arbiter (reference.go); see SetNaiveArbitration.
	naive bool

	// template is the shared cluster-roster fact every tenant plans
	// against: the node-sized worker capacity, snapshotted once at
	// construction instead of per tenant per cycle.
	template resources.Vector

	tenants  []*Tenant
	byID     map[string]*Tenant
	podOwner map[string]*Tenant

	al allocator
	// demand/grant/refGrant are the packed per-tenant cycle vectors.
	demand   []int64
	grant    []int64
	refGrant []int64

	drainBuf []string // apply() scratch

	// gen is the arbiter's incarnation counter, bumped by Crash and
	// stamped into every drain callback (and created pod) so callbacks
	// registered by a dead incarnation are fenced after Restore. down
	// marks the window between Crash and Restore, during which pod
	// events are missed (Restore's reconcile recovers them).
	gen  int
	down bool

	ticker  *simclock.Ticker
	started bool
	stats   Stats
}

// New wires an arbiter to a cluster. Add tenants, then Start.
func New(eng *simclock.Engine, cluster *kubesim.Cluster, cfg Config) *Arbiter {
	if cfg.Cycle <= 0 {
		cfg.Cycle = 30 * time.Second
	}
	if cfg.TotalWorkers == 0 {
		cfg.TotalWorkers = cluster.Config().MaxNodes
	}
	if cfg.TotalWorkers < 0 {
		cfg.TotalWorkers = 0
	}
	if cfg.WorkerImage == "" {
		cfg.WorkerImage = "wq-worker"
	}
	a := &Arbiter{
		eng:      eng,
		cluster:  cluster,
		cfg:      cfg,
		template: cluster.Config().NodeAllocatable,
		byID:     make(map[string]*Tenant),
		podOwner: make(map[string]*Tenant),
	}
	a.al.policy = cfg.Policy
	a.al.total = int64(cfg.TotalWorkers)
	cluster.OnPod(a.onPodEvent)
	return a
}

// AddTenant creates a tenant: a fresh master on the shared engine, a
// per-tenant monitor wired as its estimator, and a slot in the packed
// allocation vectors.
func (a *Arbiter) AddTenant(cfg TenantConfig) (*Tenant, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("arbiter: tenant with empty ID")
	}
	if _, dup := a.byID[cfg.ID]; dup {
		return nil, fmt.Errorf("arbiter: tenant %q already added", cfg.ID)
	}
	if cfg.QuotaMax < 0 || cfg.QuotaMin < 0 {
		return nil, fmt.Errorf("arbiter: tenant %q with negative quota", cfg.ID)
	}
	if cfg.QuotaMax > 0 && cfg.QuotaMax < cfg.QuotaMin {
		return nil, fmt.Errorf("arbiter: tenant %q ceiling %d below floor %d", cfg.ID, cfg.QuotaMax, cfg.QuotaMin)
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	master := wq.NewMaster(a.eng, nil)
	mon := monitor.New()
	master.SetEstimator(mon)
	master.OnComplete(func(r wq.Result) { mon.Observe(r.Task.Category, r.Task.Measured, r.Task.ExecWall) })
	t := &Tenant{
		cfg:     cfg,
		idx:     len(a.tenants),
		master:  master,
		mon:     mon,
		lastRev: ^uint64(0), // force the first digest
		pods:    make(map[string]workerPodState),
	}
	a.tenants = append(a.tenants, t)
	a.byID[cfg.ID] = t
	a.al.addTenant(int64(cfg.Weight), int64(cfg.QuotaMin), int64(cfg.QuotaMax), int32(cfg.Priority))
	a.demand = append(a.demand, 0)
	a.grant = append(a.grant, 0)
	a.refGrant = append(a.refGrant, 0)
	return t, nil
}

// Tenant returns a tenant by ID.
func (a *Arbiter) Tenant(id string) (*Tenant, bool) {
	t, ok := a.byID[id]
	return t, ok
}

// Tenants returns the tenants in add order.
func (a *Arbiter) Tenants() []*Tenant { return a.tenants }

// Stats returns the arbiter's work counters.
func (a *Arbiter) Stats() Stats { return a.stats }

// Grants returns the last cycle's per-tenant grants in add order. The
// returned slice is the arbiter's live scratch; callers must not
// retain or mutate it.
func (a *Arbiter) Grants() []int64 {
	if a.naive {
		return a.refGrant
	}
	return a.grant
}

// SetNaiveArbitration routes subsequent cycles through the retained
// full-replan reference arbiter (reference.go) instead of the
// incremental path.
func (a *Arbiter) SetNaiveArbitration(v bool) { a.naive = v }

// Start begins the arbitration loop.
func (a *Arbiter) Start() error {
	if a.started {
		return fmt.Errorf("arbiter: Start called twice")
	}
	a.started = true
	a.ticker = a.eng.Every(a.cfg.Cycle, "arbiter-cycle", a.RunCycle)
	return nil
}

// Stop halts the arbitration loop. Managed pods are left as they are.
func (a *Arbiter) Stop() {
	if a.ticker != nil {
		a.ticker.Stop()
		a.ticker = nil
	}
}

// drainTenantPods drains every live pod of one tenant, in name order.
func (a *Arbiter) drainTenantPods(t *Tenant) {
	names := make([]string, 0, len(t.pods))
	for name, st := range t.pods {
		if st != podDraining {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		a.drainPod(t, name)
	}
}

// RunCycle performs one arbitration cycle: refresh demand digests
// (dirty tenants only on the incremental path), allocate, commit the
// virtual-service counters, and actuate pod deltas.
func (a *Arbiter) RunCycle() {
	if a.down {
		return
	}
	a.stats.Cycles++
	grant := a.grant
	if a.naive {
		grant = a.refGrant
		a.referencePlan(grant)
	} else {
		a.plan(grant)
	}
	a.al.commit(grant)
	a.apply(grant)
}

// PlanOnly runs the planning half of a cycle — demand digests plus the
// allocation pass — without committing virtual-service counters or
// touching pods. It isolates the arbitration cost the perf headline is
// about (used by BenchmarkArbiterCycle). Returns the live grant
// scratch; callers must not retain it.
func (a *Arbiter) PlanOnly() []int64 {
	if a.naive {
		a.referencePlan(a.refGrant)
		return a.refGrant
	}
	a.plan(a.grant)
	return a.grant
}

// plan is the incremental path: memoized digests for clean tenants,
// re-plans for dirty ones, one packed allocation pass.
func (a *Arbiter) plan(grant []int64) {
	for _, t := range a.tenants {
		if a.inactive(t) {
			// Offboarding, crashed or quarantined: demand is zero by
			// fiat until the tenant recovers, so the freed capacity
			// water-fills across the healthy tenants this very cycle.
			a.demand[t.idx] = 0
			a.stats.Skipped++
			a.maybeSettle(t)
			continue
		}
		rev := t.master.Rev()
		if !t.dirty && rev == t.lastRev {
			a.stats.Skipped++
		} else {
			t.demand = a.digest(t)
			t.lastRev = rev
			t.dirty = false
			a.stats.Replans++
		}
		a.demand[t.idx] = t.demand
	}
	a.al.allocate(a.demand, grant)
}

// inactive reports whether the tenant's demand is forced to zero:
// leaving (pods drain, pending work already settled), master down
// (blast-radius containment — its share flows to healthy tenants
// until RestoreTenantMaster), or crash-loop quarantined (breaker open
// until quarUntil). The transitions in and out all mark the tenant
// dirty, so the memoized demand is recomputed on recovery.
func (a *Arbiter) inactive(t *Tenant) bool {
	return t.leaving || t.master.Down() || t.quarantinedAt(a.eng.Now())
}

// digest evaluates the tenant's demand: how many node-sized workers
// would hold its current running + waiting set, per Algorithm 1.
//
// The estimate runs with a zero Now and a zero-length window. A zero
// Now makes the planner time-free (see core.EstimateInput.Now): every
// running task holds its allocation, whatever its category's
// estimate; waiting tasks pack into the idle capacity and the
// shortage lands in node-sized bins. The result — active workers +
// ScaleChange — is therefore a pure function of the queue contents,
// the non-draining roster and the category estimates: exactly the
// state guarded by the master's revision counter, which is what makes
// the cross-cycle memo sound.
func (a *Arbiter) digest(t *Tenant) int64 {
	in := a.estimateInput(t)
	dec := t.planner.EstimateScale(in)
	d := int64(len(in.Workers) + dec.ScaleChange)
	if d < 0 {
		d = 0
	}
	return d
}

// estimateInput assembles the digest's planner input: the tenant's
// master is the task view, the worker list is reused scratch.
func (a *Arbiter) estimateInput(t *Tenant) core.EstimateInput {
	t.wiBuf = t.wiBuf[:0]
	t.master.ForEachWorker(func(id string, capacity resources.Vector, draining bool) {
		if draining {
			return
		}
		t.wiBuf = append(t.wiBuf, core.WorkerInfo{ID: id, Capacity: capacity})
	})
	return core.EstimateInput{
		Now:            time.Time{}, // time-free: see digest
		InitTime:       0,
		DefaultCycle:   a.cfg.Cycle,
		Tasks:          t.master,
		Estimator:      t.mon,
		Workers:        t.wiBuf,
		WorkerTemplate: a.template,
	}
}

// apply actuates one cycle's grants: create worker pods up to each
// tenant's target, cancel surplus still-creating pods, and drain idle
// workers. Running tasks are never killed — a shrinking tenant keeps
// busy workers until their tasks finish, and the next cycles converge.
func (a *Arbiter) apply(grant []int64) {
	for _, t := range a.tenants {
		target := int(grant[t.idx])
		current := t.creating + t.active
		switch {
		case target > current:
			for i := current; i < target; i++ {
				a.createPod(t)
			}
		case target < current:
			a.shrink(t, current-target)
		}
	}
}

// shrink releases n workers from the tenant: surplus still-creating
// pods first (free to cancel), then idle workers in join order. If
// fewer than n are idle the rest stay until tasks complete.
func (a *Arbiter) shrink(t *Tenant, n int) {
	if t.creating > 0 {
		names := make([]string, 0, t.creating)
		for name, st := range t.pods {
			if st == podCreating {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			if n == 0 {
				return
			}
			a.drainPod(t, name)
			n--
		}
	}
	a.drainBuf = t.master.AppendIdleWorkers(a.drainBuf[:0])
	for _, id := range a.drainBuf {
		if n == 0 {
			return
		}
		if t.pods[id] != podActive {
			continue
		}
		a.drainPod(t, id)
		n--
	}
}

// --- pod/worker glue (the per-tenant analogue of core.Autoscaler's) ---

func (a *Arbiter) createPod(t *Tenant) {
	t.podSeq++
	name := fmt.Sprintf("%s-w%d", t.cfg.ID, t.podSeq)
	spec := kubesim.PodSpec{
		Name:      name,
		Image:     a.cfg.WorkerImage,
		Resources: a.template,
		Labels: map[string]string{
			"app":        "wq-worker",
			"managed-by": "arbiter",
			"tenant":     t.cfg.ID,
		},
	}
	if _, err := a.cluster.CreatePod(spec); err != nil {
		t.podSeq--
		return
	}
	t.pods[name] = podCreating
	t.creating++
	a.podOwner[name] = t
	a.stats.PodsCreated++
}

func (a *Arbiter) drainPod(t *Tenant, name string) {
	switch t.pods[name] {
	case podCreating:
		// Never connected: delete outright.
		a.forgetPod(t, name)
		_ = a.cluster.DeletePod(name)
		return
	case podDraining:
		return
	}
	t.pods[name] = podDraining
	t.active--
	t.draining++
	// The drain changes the tenant's digest (its non-draining roster
	// shrank) without bumping the master revision; mark it dirty by
	// hand.
	t.dirty = true
	a.stats.PodsDrained++
	err := t.master.DrainWorker(name, a.drainDone(t, name))
	if err != nil {
		a.forgetPod(t, name)
		_ = a.cluster.DeletePod(name)
		a.maybeSettle(t)
	}
}

// drainDone builds the worker-drained callback, stamped with the
// current arbiter generation. A callback registered by a previous
// incarnation is fenced: after a crash the restored books may
// disagree with what the dead incarnation knew, so Restore's
// reconcile re-registers the drains it still wants and settles the
// rest — the stale callback must not delete pods underneath it.
func (a *Arbiter) drainDone(t *Tenant, name string) func() {
	gen := a.gen
	return func() {
		if a.down || gen != a.gen {
			a.stats.FencedCallbacks++
			return
		}
		if _, ok := t.pods[name]; !ok {
			return
		}
		a.forgetPod(t, name)
		_ = a.cluster.MarkPodSucceeded(name)
		_ = a.cluster.DeletePod(name)
		a.maybeSettle(t)
	}
}

// forgetPod removes a pod from the tenant's and the arbiter's books.
func (a *Arbiter) forgetPod(t *Tenant, name string) {
	switch t.pods[name] {
	case podCreating:
		t.creating--
	case podActive:
		t.active--
	case podDraining:
		t.draining--
	}
	delete(t.pods, name)
	delete(a.podOwner, name)
}

func (a *Arbiter) onPodEvent(ev kubesim.PodWatchEvent) {
	if a.down {
		// The crashed arbiter sees nothing; Restore's reconcile
		// recovers whatever changed during the outage.
		return
	}
	name := ev.Pod.Name
	t, mine := a.podOwner[name]
	if !mine {
		return
	}
	st := t.pods[name]
	switch {
	case ev.Type == kubesim.Modified && ev.Reason == kubesim.ReasonStarted:
		if st != podCreating {
			return
		}
		t.pods[name] = podActive
		t.creating--
		t.active++
		if t.master.Down() {
			// The tenant's master is crashed: book the pod active now,
			// connect the worker in RestoreTenantMaster's reconcile.
			return
		}
		if err := t.master.AddWorker(name, ev.Pod.Resources); err == nil {
			_ = a.cluster.SetPodUsage(name, func() resources.Vector {
				return t.master.WorkerUsage(name)
			})
		}
	case ev.Type == kubesim.Deleted:
		wasActive := st == podActive
		a.forgetPod(t, name)
		if wasActive && ev.Reason == kubesim.ReasonKilling && !t.master.Down() {
			// Pod killed underneath the arbiter (preemption, node
			// failure): requeue its tasks. A crashed master settles the
			// loss through its rescue window instead.
			_ = t.master.KillWorker(name)
		}
		a.maybeSettle(t)
	}
}
