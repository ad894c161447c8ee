package experiments

// Experiment E-K: multi-tenant fault isolation. The E-J tenant mix
// (BLAST / I/O / stream triplets) runs under the arbiter while
// seeded fault processes attack the tenancy layer itself: Poisson
// kills of per-tenant wq masters, a crash of the arbiter restored
// from its snapshot, and scripted membership churn (tenants joining
// mid-run and being offboarded while holding work). The headline
// claim is blast-radius containment: tenants the chaos never touched
// finish within a tight tolerance of their chaos-free makespans,
// victims recover with per-tenant conservation (submitted =
// completed + quarantined + shed), and an arbiter restart neither
// loses pods nor double-grants capacity. A fixed seed reproduces
// every cell byte for byte.

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hta/internal/arbiter"
	"hta/internal/chaos"
	"hta/internal/kubesim"
	"hta/internal/metrics"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// TenantChaosEKConfig parameterizes E-K; tests shrink the workload.
type TenantChaosEKConfig struct {
	Seed    int64
	Tenants int
	// TotalWorkers is the cluster-wide budget the arbiter divides.
	TotalWorkers int
	Kube         kubesim.Config
	Cycle        time.Duration
	// Per-tenant task counts by workload kind (tenant i gets kind
	// i mod 3), as in E-J.
	BlastTasks, IOTasks, StreamTasks int
	StreamInterval                   time.Duration
	// MasterKills is how many tenant-master kills the kill cells
	// deliver; victims are drawn uniformly from the live tenants.
	MasterKills int
	// ArbiterKills is how many arbiter crash/restore cycles the
	// arbiter cells deliver.
	ArbiterKills int
	// Downtime is how long a killed component stays down.
	Downtime time.Duration
	// RescueWindow is the restored master's reattach grace.
	RescueWindow time.Duration
	// ChurnJoins/ChurnLeaves are the scripted membership events the
	// churn cells deliver; joiners submit JoinerTasks I/O tasks each
	// and leavers are offboarded oldest-joiner-first while their
	// work is still in flight.
	ChurnJoins, ChurnLeaves int
	JoinerTasks             int
	Timeout                 time.Duration
}

// DefaultTenantChaosEKConfig sizes E-K like a small E-J cell with
// every fault process armed.
func DefaultTenantChaosEKConfig(seed int64) TenantChaosEKConfig {
	c := 8
	return TenantChaosEKConfig{
		Seed:         seed,
		Tenants:      15,
		TotalWorkers: c,
		Kube: kubesim.Config{
			InitialNodes:  max(2, c/4),
			MinNodes:      1,
			MaxNodes:      c,
			ProvisionMean: 90 * time.Second,
			Seed:          seed,
		},
		Cycle:          30 * time.Second,
		BlastTasks:     12,
		IOTasks:        16,
		StreamTasks:    10,
		StreamInterval: 45 * time.Second,
		MasterKills:    3,
		ArbiterKills:   1,
		Downtime:       60 * time.Second,
		RescueWindow:   30 * time.Second,
		ChurnJoins:     2,
		ChurnLeaves:    1,
		JoinerTasks:    8,
		Timeout:        12 * time.Hour,
	}
}

// SmokeTenantChaosEKConfig is the compressed variant CI's
// arbiter-recovery job runs.
func SmokeTenantChaosEKConfig(seed int64) TenantChaosEKConfig {
	cfg := DefaultTenantChaosEKConfig(seed)
	cfg.Tenants = 9
	cfg.BlastTasks = 6
	cfg.IOTasks = 8
	cfg.StreamTasks = 4
	cfg.JoinerTasks = 6
	return cfg
}

// TenantChaosEKRow is one chaos cell's outcome.
type TenantChaosEKRow struct {
	Cell string
	// Delivered fault counts (refusals re-arm and do not count).
	MasterKills, ArbiterKills, Joins, Leaves int
	Runtime                                  time.Duration
	// MaxUntouchedDelta is the isolation headline: the worst absolute
	// makespan inflation over resident tenants the chaos never
	// touched, versus the chaos-free baseline. Zero when the
	// untouched tenants got no slower (freed victim capacity
	// water-fills their way).
	MaxUntouchedDelta time.Duration
	// MaxUntouchedDeltaPct is the same worst case relative to each
	// tenant's own baseline makespan — reported for eyeballing, not
	// bounded: a short-makespan tenant turns a one-cycle absolute
	// delay into a huge percentage.
	MaxUntouchedDeltaPct float64
	// IsolationSlack is the blast-radius bound the suite holds
	// MaxUntouchedDelta under: every delivered kill may hold dead
	// capacity for its downtime plus an arbitration cycle, joiner
	// work dilutes the pool by its share, and scheduling granularity
	// adds two cycles plus a node provisioning.
	IsolationSlack time.Duration
	Untouched      int
	Submitted      int
	Completed      int
	Quarantined    int
	Shed           int
	// Recovery merges per-tenant master counters with the
	// cluster-level semantics (counts sum, downtime is the
	// worst single master); the harness folds arbiter restarts into
	// OperatorRestarts and arbiter reconcile fixes into
	// ReconcileCorrections.
	Recovery metrics.RecoveryCounters
	// FencedDrains counts drain callbacks dropped by the arbiter's
	// generation fence across its restarts.
	FencedDrains   int
	TenantsRemoved int
}

// TenantChaosEKReport is experiment E-K.
type TenantChaosEKReport struct {
	Seed     int64
	Tenants  int
	Workers  int
	Baseline time.Duration
	Rows     []TenantChaosEKRow
}

// TenantChaosEK runs the full-size experiment.
func TenantChaosEK(seed int64) (*TenantChaosEKReport, error) {
	return TenantChaosEKWith(DefaultTenantChaosEKConfig(seed))
}

// TenantChaosEKWith runs E-K under an explicit configuration: first
// the chaos-free baseline (serial — its runtime calibrates every kill
// schedule and its per-tenant makespans anchor the isolation metric),
// then the four chaos cells concurrently.
func TenantChaosEKWith(cfg TenantChaosEKConfig) (*TenantChaosEKReport, error) {
	loads := buildTenantLoads(TenantsEJConfig{
		Seed: cfg.Seed, Tenants: cfg.Tenants,
		BlastTasks: cfg.BlastTasks, IOTasks: cfg.IOTasks, StreamTasks: cfg.StreamTasks,
		StreamInterval: cfg.StreamInterval,
	})
	joinLoads := buildJoinerLoads(cfg)

	base, baseMk, err := tenantChaosCell(cfg, loads, joinLoads, "baseline", chaos.Plan{}, nil, 0)
	if err != nil {
		return nil, err
	}
	rep := &TenantChaosEKReport{
		Seed: cfg.Seed, Tenants: cfg.Tenants, Workers: cfg.TotalWorkers,
		Baseline: base.Runtime,
		Rows:     []TenantChaosEKRow{base},
	}

	cells := []struct {
		name             string
		mk, ak, churnOut bool
	}{
		{"master-kills", true, false, false},
		{"arbiter-kill", false, true, false},
		{"churn", false, false, true},
		{"full", true, true, true},
	}
	rows := make([]TenantChaosEKRow, len(cells))
	err = Parallel(len(cells), func(i int) error {
		c := cells[i]
		plan := chaos.Plan{Seed: cfg.Seed}
		if c.mk && cfg.MasterKills > 0 {
			plan.Tenant.MasterKills = chaos.ControlPlaneKillPlan{
				MeanInterval: base.Runtime / time.Duration(2*(cfg.MasterKills+1)),
				MaxKills:     cfg.MasterKills,
			}
		}
		if c.ak && cfg.ArbiterKills > 0 {
			plan.ControlPlane.Arbiter = chaos.ControlPlaneKillPlan{
				MeanInterval: base.Runtime / time.Duration(2*(cfg.ArbiterKills+1)),
				MaxKills:     cfg.ArbiterKills,
			}
		}
		var lastChurn time.Duration
		if c.churnOut {
			// Joins in the first part of the expected run, leaves
			// after them, so every leaver exists before its exit.
			segs := time.Duration(cfg.ChurnJoins + cfg.ChurnLeaves + 2)
			for j := 0; j < cfg.ChurnJoins; j++ {
				at := base.Runtime * time.Duration(j+1) / segs
				plan.Tenant.JoinAt = append(plan.Tenant.JoinAt, at)
				lastChurn = max(lastChurn, at)
			}
			for j := 0; j < cfg.ChurnLeaves; j++ {
				at := base.Runtime * time.Duration(cfg.ChurnJoins+j+1) / segs
				plan.Tenant.LeaveAt = append(plan.Tenant.LeaveAt, at)
				lastChurn = max(lastChurn, at)
			}
		}
		var err error
		rows[i], _, err = tenantChaosCell(cfg, loads, joinLoads, c.name, plan, baseMk, lastChurn)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, rows...)
	return rep, nil
}

// buildJoinerLoads builds every scripted joiner's workload once per
// report, from its own stream so resident loads replay identically
// with or without churn.
func buildJoinerLoads(cfg TenantChaosEKConfig) [][]wq.TaskSpec {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	loads := make([][]wq.TaskSpec, cfg.ChurnJoins)
	for i := range loads {
		for j := 0; j < cfg.JoinerTasks; j++ {
			loads[i] = append(loads[i], wq.TaskSpec{
				Category:  "io",
				Resources: resources.Vector{MilliCPU: 150, MemoryMB: 512},
				Profile: wq.Profile{
					ExecDuration: time.Duration(20+rng.Intn(21)) * time.Second,
					UsedCPUMilli: 150, UsedMemoryMB: 512,
				},
			})
		}
	}
	return loads
}

// tenantChaosHarness owns one E-K cell's stack and implements both
// chaos.ControlPlane (the arbiter as kill target) and
// chaos.TenantControlPlane (tenant-master kills and membership
// churn). All methods run on the simulation goroutine.
type tenantChaosHarness struct {
	eng          *simclock.Engine
	a            *arbiter.Arbiter
	downtime     time.Duration
	rescueWindow time.Duration

	// masters retains every tenant ever admitted — the arbiter
	// forgets offboarded tenants, the accounting must not.
	masters   map[string]*wq.Master
	order     []string
	joiners   []string // live joiners, oldest first
	joinLoads [][]wq.TaskSpec
	lastDone  map[string]time.Time
	victims   map[string]bool
	restarts  map[string]int
	// joinerWork sums the execution time of every task a delivered
	// join submitted; its share of the pool is legitimate dilution
	// the isolation bound must allow for.
	joinerWork time.Duration

	total, done int
	arbDown     bool
	arbRestarts int
	err         error
}

// CrashComponent delivers an arbiter kill: snapshot, crash, restore
// after the downtime. Refused while a previous outage is still open.
func (h *tenantChaosHarness) CrashComponent(c chaos.Component) bool {
	if c != chaos.ComponentArbiter || h.arbDown || h.err != nil {
		return false
	}
	snap, ok := h.a.Crash()
	if !ok {
		return false
	}
	h.arbDown = true
	h.arbRestarts++
	h.eng.After(h.downtime, "recover-arbiter", func() {
		h.a.Restore(snap)
		h.arbDown = false
	})
	return true
}

// TenantIDs lists the kill-eligible tenants: live, master up, not
// offboarding. While the arbiter is down the list is empty — the
// injector re-arms without counting, like any refused kill.
func (h *tenantChaosHarness) TenantIDs() []string {
	if h.arbDown {
		return nil
	}
	var ids []string
	for _, t := range h.a.Tenants() {
		if !t.Leaving() && !t.Master().Down() {
			ids = append(ids, t.ID())
		}
	}
	return ids
}

// CrashTenantMaster delivers one tenant-master kill and schedules the
// restore; the arbiter quarantine machinery sees the crash through
// its own CrashTenantMaster path.
func (h *tenantChaosHarness) CrashTenantMaster(id string) bool {
	if h.arbDown || h.err != nil {
		return false
	}
	if err := h.a.CrashTenantMaster(id); err != nil {
		return false
	}
	h.victims[id] = true
	h.restarts[id]++
	h.eng.After(h.downtime, "recover-tenant-master", func() {
		if err := h.a.RestoreTenantMaster(id, h.rescueWindow); err != nil {
			h.fail(err)
		}
	})
	return true
}

// JoinTenant admits scripted joiner seq and submits its workload.
func (h *tenantChaosHarness) JoinTenant(seq int) bool {
	if h.err != nil || seq >= len(h.joinLoads) {
		return false
	}
	id := fmt.Sprintf("j%03d", seq)
	ten, err := h.a.AddTenant(arbiter.TenantConfig{ID: id, Weight: 1})
	if err != nil {
		return false
	}
	h.track(id, ten)
	h.joiners = append(h.joiners, id)
	for _, spec := range h.joinLoads[seq] {
		h.total++
		h.joinerWork += spec.Profile.ExecDuration
		ten.Master().Submit(spec)
	}
	return true
}

// LeaveTenant offboards the oldest live joiner mid-flight: pending
// work is failed, running work settles, pods drain back to the pool.
func (h *tenantChaosHarness) LeaveTenant() bool {
	if h.arbDown || h.err != nil {
		return false
	}
	for i, id := range h.joiners {
		t, ok := h.a.Tenant(id)
		if !ok || t.Leaving() || t.Master().Down() {
			continue
		}
		if err := h.a.OffboardTenant(id); err != nil {
			continue
		}
		h.joiners = append(h.joiners[:i], h.joiners[i+1:]...)
		return true
	}
	return false
}

// track wires a tenant's terminal callbacks into the cell's
// completion accounting.
func (h *tenantChaosHarness) track(id string, ten *arbiter.Tenant) {
	h.masters[id] = ten.Master()
	h.order = append(h.order, id)
	terminal := func() { h.done++; h.lastDone[id] = h.eng.Now() }
	ten.Master().OnComplete(func(wq.Result) { terminal() })
	ten.Master().OnTaskFailed(func(wq.Task) { terminal() })
	ten.Master().OnRejected(func(wq.Task) { terminal() })
}

func (h *tenantChaosHarness) fail(err error) {
	if h.err == nil {
		h.err = fmt.Errorf("experiments: E-K harness: %w", err)
	}
}

// tenantChaosCell runs one E-K simulation and returns its row plus
// the per-resident makespans (the baseline cell's anchor the
// isolation metric for every chaos cell).
func tenantChaosCell(cfg TenantChaosEKConfig, loads []tenantLoad, joinLoads [][]wq.TaskSpec,
	name string, plan chaos.Plan, baseMk map[string]time.Duration, lastChurn time.Duration,
) (TenantChaosEKRow, map[string]time.Duration, error) {
	row := TenantChaosEKRow{Cell: name}
	eng := simclock.NewEngine(SimStart)
	cluster := kubesim.NewCluster(eng, cfg.Kube)
	defer cluster.Stop()
	a := arbiter.New(eng, cluster, arbiter.Config{
		Cycle:        cfg.Cycle,
		TotalWorkers: cfg.TotalWorkers,
		Policy:       arbiter.PolicyFairShare,
	})
	h := &tenantChaosHarness{
		eng: eng, a: a,
		downtime: cfg.Downtime, rescueWindow: cfg.RescueWindow,
		masters:   make(map[string]*wq.Master),
		lastDone:  make(map[string]time.Time),
		victims:   make(map[string]bool),
		restarts:  make(map[string]int),
		joinLoads: joinLoads,
	}

	residents := make([]string, cfg.Tenants)
	for i, ld := range loads {
		id := fmt.Sprintf("t%03d", i)
		residents[i] = id
		ten, err := a.AddTenant(arbiter.TenantConfig{ID: id, Weight: ld.weight})
		if err != nil {
			return row, nil, err
		}
		h.track(id, ten)
		for j, spec := range ld.specs {
			h.total++
			if at := ld.at[j]; at > 0 {
				spec := spec
				eng.At(SimStart.Add(at), "tenant-submit", func() { ten.Master().Submit(spec) })
			} else {
				ten.Master().Submit(spec)
			}
		}
	}
	if err := a.Start(); err != nil {
		return row, nil, err
	}

	var inj *chaos.Injector
	if plan.Enabled() {
		inj = chaos.New(eng, plan)
		inj.AttachControlPlane(h)
		inj.AttachTenants(h)
		inj.Start()
	}

	deadline := SimStart.Add(cfg.Timeout)
	churnDone := SimStart.Add(lastChurn)
	eng.RunWhile(func() bool {
		if h.err != nil || !eng.Now().Before(deadline) {
			return false
		}
		return h.done < h.total || eng.Now().Before(churnDone)
	})
	if inj != nil {
		inj.Stop()
	}
	a.Stop()
	if h.err != nil {
		return row, nil, h.err
	}
	if h.done != h.total {
		return row, nil, fmt.Errorf("experiments: E-K %s stalled: %d/%d terminal by %v", name, h.done, h.total, eng.Now())
	}
	row.Runtime = eng.Elapsed()

	// Per-tenant conservation: every master ever admitted — including
	// offboarded joiners the arbiter has already forgotten — must
	// balance its books.
	perTenant := make([]metrics.RecoveryCounters, 0, len(h.order))
	for _, id := range h.order {
		m := h.masters[id]
		sub, com := m.SubmittedCount(), m.CompletedCount()
		quar, shed := m.QuarantinedCount(), m.ShedCount()
		if com+quar+shed != sub {
			return row, nil, fmt.Errorf("experiments: E-K %s tenant %s leaks work: %d completed + %d quarantined + %d shed != %d submitted",
				name, id, com, quar, shed, sub)
		}
		row.Submitted += sub
		row.Completed += com
		row.Quarantined += quar
		row.Shed += shed
		rc := m.RecoveryStats()
		rc.MasterRestarts = h.restarts[id]
		perTenant = append(perTenant, rc)
	}
	row.Recovery = metrics.ClusterRecovery(perTenant)
	row.Recovery.OperatorRestarts += h.arbRestarts
	ast := a.Stats()
	row.Recovery.ReconcileCorrections += ast.ReconcileCorrections
	row.FencedDrains = ast.FencedCallbacks
	row.TenantsRemoved = ast.TenantsRemoved
	if inj != nil {
		cs := inj.Stats()
		row.MasterKills = cs.TenantMasterKills
		row.ArbiterKills = cs.ArbiterKills
		row.Joins = cs.TenantJoins
		row.Leaves = cs.TenantLeaves
	}

	// Isolation metric: the worst makespan inflation over residents
	// the chaos never crashed, against the chaos-free baseline.
	mks := make(map[string]time.Duration, len(residents))
	for _, id := range residents {
		mks[id] = h.lastDone[id].Sub(SimStart)
	}
	kills := row.MasterKills + row.ArbiterKills
	row.IsolationSlack = time.Duration(kills)*(cfg.Downtime+cfg.Cycle) +
		2*cfg.Cycle + cfg.Kube.ProvisionMean
	if cfg.TotalWorkers > 0 {
		row.IsolationSlack += h.joinerWork / time.Duration(cfg.TotalWorkers)
	}
	if baseMk != nil {
		for _, id := range residents {
			if h.victims[id] {
				continue
			}
			row.Untouched++
			base := baseMk[id]
			if base <= 0 {
				continue
			}
			if delta := mks[id] - base; delta > row.MaxUntouchedDelta {
				row.MaxUntouchedDelta = delta
			}
			if pct := (mks[id] - base).Seconds() / base.Seconds() * 100; pct > row.MaxUntouchedDeltaPct {
				row.MaxUntouchedDeltaPct = pct
			}
		}
	} else {
		row.Untouched = len(residents)
	}
	return row, mks, nil
}

// String renders the E-K table; with a fixed seed the output is
// byte-identical across runs.
func (r *TenantChaosEKReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-K — tenant fault isolation: %d tenants on %d workers (seed %d, baseline %.0fs)\n",
		r.Tenants, r.Workers, r.Seed, r.Baseline.Seconds())
	fmt.Fprintf(&b, "%-13s %5s %5s %5s %6s %9s %8s %8s %7s %7s %7s %6s %6s %6s %5s\n",
		"cell", "mkill", "akill", "churn", "unt", "runtime", "maxΔ", "slack", "done", "quar",
		"rescued", "requd", "recon", "fenced", "gone")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-13s %5d %5d %2d/%-2d %6d %8.0fs %7.0fs %7.0fs %7d %7d %7d %6d %6d %6d %5d\n",
			row.Cell, row.MasterKills, row.ArbiterKills, row.Joins, row.Leaves, row.Untouched,
			row.Runtime.Seconds(), row.MaxUntouchedDelta.Seconds(), row.IsolationSlack.Seconds(),
			row.Completed, row.Quarantined,
			row.Recovery.RescuedTasks, row.Recovery.RequeuedUnrescued,
			row.Recovery.ReconcileCorrections, row.FencedDrains, row.TenantsRemoved)
	}
	return b.String()
}
