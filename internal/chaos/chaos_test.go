package chaos

import (
	"fmt"
	"testing"
	"time"

	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// preemptLog wraps a cluster and logs every node the injector
// preempts, with the virtual time of the preemption.
type preemptLog struct {
	*kubesim.Cluster
	log []string
}

func (p *preemptLog) PreemptNode(name string) error {
	if err := p.Cluster.PreemptNode(name); err != nil {
		return err
	}
	p.log = append(p.log, fmt.Sprintf("%s node/%s", p.Engine().Now().Format("15:04:05"), name))
	return nil
}

// runPreemptions executes a Poisson-preemption plan against a fresh
// cluster and returns the ordered preemption log.
func runPreemptions(seed int64) (Stats, []string) {
	eng := simclock.NewEngine(t0)
	cluster := &preemptLog{Cluster: kubesim.NewCluster(eng, kubesim.Config{
		InitialNodes: 8, MinNodes: 1, MaxNodes: 10, Seed: 7,
	})}
	inj := New(eng, Plan{
		Seed:       seed,
		Preemption: PreemptionPlan{MeanInterval: 5 * time.Minute, MinNodesSpared: 2},
	})
	inj.AttachCluster(cluster)
	inj.Start()
	eng.RunUntil(t0.Add(time.Hour))
	inj.Stop()
	cluster.Stop()
	return inj.Stats(), cluster.log
}

func TestChaosPreemptionDeterministic(t *testing.T) {
	s1, log1 := runPreemptions(42)
	s2, log2 := runPreemptions(42)
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	if s1.Preemptions == 0 {
		t.Fatalf("no preemptions injected in an hour at 5 min mean")
	}
	if len(log1) != s1.Preemptions {
		t.Fatalf("%d preemptions counted, %d logged", s1.Preemptions, len(log1))
	}
	if fmt.Sprint(log1) != fmt.Sprint(log2) {
		t.Fatalf("same seed, different preemption logs:\n%v\n%v", log1, log2)
	}
	s3, _ := runPreemptions(43)
	if s3.Preemptions == s1.Preemptions {
		t.Logf("different seeds produced equal counts (possible, just unlikely): %d", s1.Preemptions)
	}
}

func TestChaosPreemptionSparesFloor(t *testing.T) {
	eng := simclock.NewEngine(t0)
	// MinNodes = 4 keeps the cloud controller's empty-node scale-down
	// out of the picture; only the injector removes nodes.
	cluster := kubesim.NewCluster(eng, kubesim.Config{
		InitialNodes: 4, MinNodes: 4, MaxNodes: 4, Seed: 7,
	})
	inj := New(eng, Plan{
		Seed:       1,
		Preemption: PreemptionPlan{MeanInterval: time.Minute, MinNodesSpared: 3},
	})
	inj.AttachCluster(cluster)
	inj.Start()
	eng.RunUntil(t0.Add(2 * time.Hour))
	if got := cluster.ReadyNodes(); got != 3 {
		t.Fatalf("ready nodes = %d, want floor of 3", got)
	}
	inj.Stop()
	cluster.Stop()
}

func TestChaosWorkerCrashKillsBusyWorker(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	m.AddWorker("idle", resources.New(4, 16384, 1000))
	m.AddWorker("busy", resources.New(4, 16384, 1000))
	// Make exactly one worker busy, then crash: the idle one must
	// survive.
	m.Submit(wq.TaskSpec{
		Category:  "align",
		Resources: resources.New(4, 16384, 1000),
		Profile:   wq.Profile{ExecDuration: time.Hour, UsedCPUMilli: 900},
	})
	inj := New(eng, Plan{Seed: 5, WorkerCrash: WorkerCrashPlan{MeanInterval: time.Minute}})
	inj.AttachMaster(m)
	eng.RunUntil(t0.Add(time.Second)) // let the task dispatch first
	inj.Start()
	eng.RunUntil(t0.Add(30 * time.Minute))
	if inj.Stats().WorkerCrashes == 0 {
		t.Fatalf("no crashes in 30 min at 1 min mean")
	}
	if got := m.FailureStats().WorkerKills; got == 0 {
		t.Fatalf("master saw no kills")
	}
	inj.Stop()
}

// fakeControlPlane records delivered kills and can refuse a component.
type fakeControlPlane struct {
	eng    *simclock.Engine
	refuse map[Component]bool
	log    []string
}

func (f *fakeControlPlane) CrashComponent(c Component) bool {
	if f.refuse[c] {
		return false
	}
	f.log = append(f.log, fmt.Sprintf("%s %s", f.eng.Now().Format("15:04:05"), c))
	return true
}

func runControlPlaneKills(seed int64, refuse map[Component]bool) (Stats, []string) {
	eng := simclock.NewEngine(t0)
	cp := &fakeControlPlane{eng: eng, refuse: refuse}
	inj := New(eng, Plan{
		Seed: seed,
		ControlPlane: ControlPlanePlan{
			Makeflow: ControlPlaneKillPlan{MeanInterval: 10 * time.Minute, MaxKills: 2},
			Master:   ControlPlaneKillPlan{MeanInterval: 15 * time.Minute, MaxKills: 1},
			Operator: ControlPlaneKillPlan{MeanInterval: 5 * time.Minute, MaxKills: 3},
		},
	})
	inj.AttachControlPlane(cp)
	inj.Start()
	eng.RunUntil(t0.Add(6 * time.Hour))
	inj.Stop()
	return inj.Stats(), cp.log
}

func TestChaosControlPlaneKillsBoundedAndDeterministic(t *testing.T) {
	s1, log1 := runControlPlaneKills(42, nil)
	s2, log2 := runControlPlaneKills(42, nil)
	if s1 != s2 || fmt.Sprint(log1) != fmt.Sprint(log2) {
		t.Fatalf("same seed diverged:\n%+v %v\n%+v %v", s1, log1, s2, log2)
	}
	// Six hours at these means is far beyond every cap: each process
	// must deliver exactly MaxKills and then disarm.
	if s1.MakeflowKills != 2 || s1.MasterKills != 1 || s1.OperatorKills != 3 {
		t.Fatalf("kills = %+v, want caps 2/1/3 reached exactly", s1)
	}
	if len(log1) != 6 {
		t.Fatalf("delivered log has %d entries, want 6: %v", len(log1), log1)
	}
}

func TestChaosControlPlaneRefusedKillsDoNotCount(t *testing.T) {
	s, log := runControlPlaneKills(42, map[Component]bool{ComponentMaster: true})
	if s.MasterKills != 0 {
		t.Fatalf("refused kills counted: %+v", s)
	}
	// The other processes are unaffected by the refusals.
	if s.MakeflowKills != 2 || s.OperatorKills != 3 {
		t.Fatalf("kills = %+v, want 2 makeflow and 3 operator", s)
	}
	for _, line := range log {
		if line[len(line)-len("master"):] == "master" {
			t.Fatalf("refused master kill appeared in delivered log: %v", log)
		}
	}
}

func TestChaosControlPlanePlanEnabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	p := Plan{ControlPlane: ControlPlanePlan{Master: ControlPlaneKillPlan{MeanInterval: time.Minute}}}
	if !p.Enabled() {
		t.Fatal("control-plane-only plan reports disabled")
	}
}

// fakeTenants is a scripted TenantControlPlane: it tracks a roster of
// tenant IDs, refuses kills on request, and logs every delivered
// event for determinism checks.
type fakeTenants struct {
	eng    *simclock.Engine
	ids    []string
	refuse map[string]bool
	log    []string
}

func (f *fakeTenants) TenantIDs() []string { return f.ids }

func (f *fakeTenants) CrashTenantMaster(id string) bool {
	if f.refuse[id] {
		return false
	}
	f.log = append(f.log, fmt.Sprintf("%s kill %s", f.eng.Now().Format("15:04:05"), id))
	return true
}

func (f *fakeTenants) JoinTenant(seq int) bool {
	id := fmt.Sprintf("j%02d", seq)
	f.ids = append(f.ids, id)
	f.log = append(f.log, fmt.Sprintf("%s join %s", f.eng.Now().Format("15:04:05"), id))
	return true
}

func (f *fakeTenants) LeaveTenant() bool {
	if len(f.ids) == 0 {
		return false
	}
	id := f.ids[0]
	f.ids = f.ids[1:]
	f.log = append(f.log, fmt.Sprintf("%s leave %s", f.eng.Now().Format("15:04:05"), id))
	return true
}

func runTenantChaos(seed int64, refuse map[string]bool) (Stats, []string) {
	eng := simclock.NewEngine(t0)
	tcp := &fakeTenants{eng: eng, ids: []string{"alpha", "beta", "gamma"}, refuse: refuse}
	inj := New(eng, Plan{
		Seed: seed,
		Tenant: TenantPlan{
			MasterKills: ControlPlaneKillPlan{MeanInterval: 10 * time.Minute, MaxKills: 4},
			JoinAt:      []time.Duration{15 * time.Minute, 45 * time.Minute},
			LeaveAt:     []time.Duration{30 * time.Minute},
		},
	})
	inj.AttachTenants(tcp)
	inj.Start()
	eng.RunUntil(t0.Add(6 * time.Hour))
	inj.Stop()
	return inj.Stats(), tcp.log
}

// TestChaosStopIdempotentAndRearm pins the Stop/Start lifecycle: Stop
// before Start is safe, double-Stop does not panic, Stop cancels the
// offsets still pending, and Start after Stop re-arms the plan with
// its offsets re-anchored at the new start.
func TestChaosStopIdempotentAndRearm(t *testing.T) {
	eng := simclock.NewEngine(t0)
	tcp := &fakeTenants{eng: eng}
	inj := New(eng, Plan{Tenant: TenantPlan{
		JoinAt: []time.Duration{5 * time.Minute, 30 * time.Minute},
	}})
	inj.AttachTenants(tcp)

	inj.Stop() // before Start: must be a safe no-op
	inj.Stop() // double-Stop: no panic
	inj.Start()
	eng.RunUntil(t0.Add(20 * time.Minute))
	inj.Stop()
	inj.Stop()                             // double-Stop after a run: no panic
	eng.RunUntil(t0.Add(40 * time.Minute)) // the +30 min join is cancelled
	inj.Start()                            // re-arm: offsets re-anchored at +40 min
	eng.RunUntil(t0.Add(2 * time.Hour))
	inj.Stop()

	want := []string{"00:05:00 join j00", "00:45:00 join j00", "01:10:00 join j01"}
	if fmt.Sprint(tcp.log) != fmt.Sprint(want) {
		t.Fatalf("join log = %v, want %v", tcp.log, want)
	}
	if got := inj.Stats().TenantJoins; got != len(want) {
		t.Fatalf("stats not cumulative across re-arm: %d joins, %d delivered", got, len(want))
	}
}

// TestChaosTenantPlanDeterministic pins the tenant fault processes:
// same seed replays the same kill victims and churn order, the
// delivered-kill cap is reached exactly, and scripted joins/leaves
// fire once each.
func TestChaosTenantPlanDeterministic(t *testing.T) {
	s1, log1 := runTenantChaos(42, nil)
	s2, log2 := runTenantChaos(42, nil)
	if s1 != s2 || fmt.Sprint(log1) != fmt.Sprint(log2) {
		t.Fatalf("same seed diverged:\n%+v %v\n%+v %v", s1, log1, s2, log2)
	}
	if s1.TenantMasterKills != 4 {
		t.Fatalf("tenant kills = %d, want cap of 4 reached", s1.TenantMasterKills)
	}
	if s1.TenantJoins != 2 || s1.TenantLeaves != 1 {
		t.Fatalf("churn = %d joins / %d leaves, want 2/1", s1.TenantJoins, s1.TenantLeaves)
	}
}

// TestChaosTenantRefusedKillsRearm pins the refusal contract: a
// refused tenant kill does not count against the cap, and the process
// keeps drawing until it delivers the full quota on other victims.
func TestChaosTenantRefusedKillsRearm(t *testing.T) {
	s, log := runTenantChaos(42, map[string]bool{"alpha": true})
	if s.TenantMasterKills != 4 {
		t.Fatalf("tenant kills = %d, want 4 delivered despite refusals", s.TenantMasterKills)
	}
	for _, line := range log {
		if len(line) > 5 && line[len(line)-5:] == "alpha" && line[9:13] == "kill" {
			t.Fatalf("refused alpha kill appeared in delivered log: %v", log)
		}
	}
}

// TestChaosArbiterKillTarget pins ComponentArbiter as a first-class
// control-plane kill target with its own Stats counter and
// refusal-re-arms semantics.
func TestChaosArbiterKillTarget(t *testing.T) {
	if ComponentArbiter.String() != "arbiter" {
		t.Fatalf("ComponentArbiter.String() = %q", ComponentArbiter.String())
	}
	p := Plan{ControlPlane: ControlPlanePlan{Arbiter: ControlPlaneKillPlan{MeanInterval: time.Minute}}}
	if !p.Enabled() {
		t.Fatal("arbiter-only control-plane plan reports disabled")
	}

	eng := simclock.NewEngine(t0)
	cp := &fakeControlPlane{eng: eng}
	inj := New(eng, Plan{
		Seed: 7,
		ControlPlane: ControlPlanePlan{
			Arbiter: ControlPlaneKillPlan{MeanInterval: 20 * time.Minute, MaxKills: 2},
		},
	})
	inj.AttachControlPlane(cp)
	inj.Start()
	eng.RunUntil(t0.Add(12 * time.Hour))
	inj.Stop()
	if got := inj.Stats().ArbiterKills; got != 2 {
		t.Fatalf("arbiter kills = %d, want cap of 2 reached", got)
	}
	for _, line := range cp.log {
		if line[len(line)-len("arbiter"):] != "arbiter" {
			t.Fatalf("non-arbiter kill delivered: %v", cp.log)
		}
	}

	// Refusals re-arm without counting.
	eng2 := simclock.NewEngine(t0)
	cp2 := &fakeControlPlane{eng: eng2, refuse: map[Component]bool{ComponentArbiter: true}}
	inj2 := New(eng2, Plan{
		Seed: 7,
		ControlPlane: ControlPlanePlan{
			Arbiter: ControlPlaneKillPlan{MeanInterval: 20 * time.Minute, MaxKills: 2},
		},
	})
	inj2.AttachControlPlane(cp2)
	inj2.Start()
	eng2.RunUntil(t0.Add(12 * time.Hour))
	inj2.Stop()
	if got := inj2.Stats().ArbiterKills; got != 0 {
		t.Fatalf("refused arbiter kills counted: %d", got)
	}
}

// TestChaosTenantPlanEnabled pins the Enabled cascade for TenantPlan.
func TestChaosTenantPlanEnabled(t *testing.T) {
	if (TenantPlan{}).Enabled() {
		t.Fatal("zero TenantPlan reports enabled")
	}
	if !(TenantPlan{MasterKills: ControlPlaneKillPlan{MeanInterval: time.Minute}}).Enabled() {
		t.Fatal("kill-only TenantPlan reports disabled")
	}
	if !(TenantPlan{JoinAt: []time.Duration{time.Minute}}).Enabled() {
		t.Fatal("join-only TenantPlan reports disabled")
	}
	if !(Plan{Tenant: TenantPlan{LeaveAt: []time.Duration{time.Minute}}}).Enabled() {
		t.Fatal("tenant-only Plan reports disabled")
	}
}
