package arbiter

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hta/internal/bind"
	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// newLiveFleet builds an arbiter over a live cluster with the given
// tenant configs, each submitting `tasks` uniform tasks.
func newLiveFleet(tb testing.TB, seed int64, totalWorkers, tasks int, cfgs []TenantConfig, cfg Config) (*simclock.Engine, *Arbiter) {
	tb.Helper()
	eng := simclock.NewEngine(simStart)
	cluster := kubesim.NewCluster(eng, kubesim.Config{
		InitialNodes:  totalWorkers,
		MinNodes:      1,
		MaxNodes:      totalWorkers * 2,
		ProvisionMean: 30 * time.Second,
		Seed:          seed,
	})
	if cfg.Cycle == 0 {
		cfg.Cycle = 20 * time.Second
	}
	cfg.TotalWorkers = totalWorkers
	a := New(eng, cluster, cfg)
	for _, tc := range cfgs {
		ten, err := a.AddTenant(tc)
		if err != nil {
			tb.Fatal(err)
		}
		for j := 0; j < tasks; j++ {
			ten.Master().Submit(wq.TaskSpec{
				Category:  "work",
				Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
				Profile:   wq.Profile{ExecDuration: 2 * time.Minute, UsedCPUMilli: 870, UsedMemoryMB: 1700},
			})
		}
	}
	return eng, a
}

// conserve asserts the per-tenant conservation invariant on a master.
func conserve(tb testing.TB, id string, m *wq.Master) {
	tb.Helper()
	if got := m.CompletedCount() + m.QuarantinedCount() + m.ShedCount(); got != m.SubmittedCount() {
		tb.Fatalf("tenant %s conservation: completed %d + quarantined %d + shed %d != submitted %d",
			id, m.CompletedCount(), m.QuarantinedCount(), m.ShedCount(), m.SubmittedCount())
	}
}

// checkBooks asserts the tri-state pod-book invariants for every
// tenant: counters match the map, and every booked pod is owned.
func checkBooks(tb testing.TB, a *Arbiter) {
	tb.Helper()
	owned := 0
	for _, ten := range a.Tenants() {
		var walk [3]int
		for _, name := range ten.pods.Sorted() {
			st, _ := ten.pods.State(name)
			walk[st]++
			if a.podOwner[name] != ten {
				tb.Fatalf("pod %s booked by %s but owned by someone else", name, ten.ID())
			}
			owned++
		}
		if cached := bookCounts(ten); walk != cached {
			tb.Fatalf("tenant %s books: counted %v, cached %v", ten.ID(), walk, cached)
		}
	}
	if owned != len(a.podOwner) {
		tb.Fatalf("podOwner holds %d entries, tenants book %d", len(a.podOwner), owned)
	}
}

// bookCounts returns the tenant's cached creating/active/draining
// pod counts.
func bookCounts(t *Tenant) [3]int {
	return [3]int{t.pods.Count(bind.PodCreating), t.pods.Count(bind.PodActive), t.pods.Count(bind.PodDraining)}
}

// livePods returns the tenant's live (creating + active) worker pods.
func livePods(t *Tenant) int { return t.pods.Live() }

// TestOffboardHandback walks a graceful departure end to end: the
// leaving tenant's pending work is quarantined, its running tasks
// finish on draining pods, its capacity water-fills to the survivor
// on the next cycles, and once quiescent the tenant is removed from
// the allocation vectors with conservation intact.
func TestOffboardHandback(t *testing.T) {
	eng, a := newLiveFleet(t, 11, 4, 10, []TenantConfig{
		{ID: "alpha", Weight: 1},
		{ID: "beta", Weight: 1},
	}, Config{})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	alpha, _ := a.Tenant("alpha")
	beta, _ := a.Tenant("beta")
	am, bm := alpha.Master(), beta.Master()

	// Run until both tenants hold workers and work is in flight.
	eng.RunWhile(func() bool {
		return (livePods(alpha) < 2 || livePods(beta) < 2) &&
			eng.Now().Before(simStart.Add(time.Hour))
	})
	if livePods(alpha) < 2 || livePods(beta) < 2 {
		t.Fatalf("fleet never warmed: alpha=%d beta=%d pods", livePods(alpha), livePods(beta))
	}
	if err := a.OffboardTenant("ghost"); err == nil {
		t.Fatal("offboarding unknown tenant succeeded")
	}
	if err := a.OffboardTenant("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := a.OffboardTenant("alpha"); err != nil {
		t.Fatalf("second offboard not idempotent: %v", err)
	}
	if !alpha.Leaving() {
		t.Fatal("alpha not marked leaving")
	}
	// Pending alpha work was settled immediately; running tasks stay.
	if st := am.Stats(); st.Waiting != 0 {
		t.Fatalf("alpha still has %d waiting tasks after offboard", st.Waiting)
	}
	// The survivor absorbs the freed capacity while alpha drains out.
	betaPeak := 0
	eng.RunWhile(func() bool {
		if n := livePods(beta); n > betaPeak {
			betaPeak = n
		}
		return bm.CompletedCount() < bm.SubmittedCount() && eng.Now().Before(simStart.Add(6*time.Hour))
	})
	if bm.CompletedCount() != 10 {
		t.Fatalf("beta completed %d/10 by %v", bm.CompletedCount(), eng.Now())
	}
	if betaPeak < 4 {
		t.Fatalf("beta never absorbed alpha's share: peak %d pods, want 4", betaPeak)
	}
	// Let alpha's last drains and the settle event land.
	eng.RunWhile(func() bool {
		_, live := a.Tenant("alpha")
		return live && eng.Now().Before(simStart.Add(12*time.Hour))
	})
	a.Stop()
	// Alpha is gone: removed from the vectors, no pods, books settled.
	if _, ok := a.Tenant("alpha"); ok {
		t.Fatal("alpha still registered after settling")
	}
	if !alpha.removed {
		t.Fatal("alpha struct not marked removed")
	}
	if n := len(a.cluster.ListPods(map[string]string{"tenant": "alpha"})); n != 0 {
		t.Fatalf("alpha leaked %d pods", n)
	}
	if got := a.Stats().TenantsRemoved; got != 1 {
		t.Fatalf("TenantsRemoved = %d, want 1", got)
	}
	if len(a.Tenants()) != 1 || a.Tenants()[0] != beta || beta.idx != 0 {
		t.Fatalf("survivor not reindexed: %d tenants, beta idx %d", len(a.Tenants()), beta.idx)
	}
	if len(a.al.weight) != 1 || len(a.demand) != 1 {
		t.Fatalf("allocation vectors not spliced: %d weights, %d demands", len(a.al.weight), len(a.demand))
	}
	// Conservation on both sides of the departure: alpha's completed +
	// quarantined covers everything it ever submitted.
	conserve(t, "alpha", am)
	conserve(t, "beta", bm)
	if am.QuarantinedCount() == 0 {
		t.Fatal("alpha quarantined nothing: offboard found no pending work to settle")
	}
	checkBooks(t, a)
}

// TestTenantMasterCrashRestore contains a single tenant's master
// failure: while down its demand reads zero (the healthy tenant
// absorbs the share), its pods stay booked; on restore the workers
// reattach, in-flight attempts rescue, and the workload completes
// with conservation and recovery counters intact.
func TestTenantMasterCrashRestore(t *testing.T) {
	eng, a := newLiveFleet(t, 17, 4, 8, []TenantConfig{
		{ID: "alpha", Weight: 1},
		{ID: "beta", Weight: 1},
	}, Config{})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	alpha, _ := a.Tenant("alpha")
	beta, _ := a.Tenant("beta")

	eng.RunWhile(func() bool {
		return alpha.Master().Stats().Running == 0 && eng.Now().Before(simStart.Add(time.Hour))
	})
	if alpha.Master().Stats().Running == 0 {
		t.Fatal("alpha never started running tasks")
	}
	podsBefore := livePods(alpha)
	if err := a.CrashTenantMaster("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := a.CrashTenantMaster("alpha"); err == nil {
		t.Fatal("double crash succeeded")
	}
	if !alpha.Master().Down() {
		t.Fatal("alpha master not down")
	}
	// Two cycles of downtime: alpha's demand reads zero, beta absorbs.
	betaBefore := livePods(beta)
	eng.RunUntil(eng.Now().Add(50 * time.Second))
	if g := a.grant; g[alpha.idx] != 0 {
		t.Fatalf("crashed tenant granted %d workers", g[alpha.idx])
	}
	if livePods(beta) < betaBefore {
		t.Fatalf("healthy tenant shrank during alpha's outage: %d -> %d", betaBefore, livePods(beta))
	}
	// Alpha's pods stayed booked through the outage (drains never
	// target a down master's pods because demand zero drains via the
	// shrink path... which requires a live roster; the books hold).
	if alpha.pods.Len() == 0 {
		t.Fatal("alpha's pods vanished during the outage")
	}
	_ = podsBefore
	if err := a.RestoreTenantMaster("alpha", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreTenantMaster("alpha", time.Minute); err == nil {
		t.Fatal("double restore succeeded")
	}
	rec := alpha.Master().RecoveryStats()
	if rec.Downtime <= 0 {
		t.Fatalf("recovery counters after restore: %+v", rec)
	}
	if rec.RescuedTasks == 0 {
		t.Fatalf("no in-flight attempts rescued across the restart: %+v", rec)
	}
	// Everything completes; conservation holds tenant by tenant.
	total := func() int {
		return alpha.Master().CompletedCount() + alpha.Master().QuarantinedCount() +
			beta.Master().CompletedCount() + beta.Master().QuarantinedCount()
	}
	eng.RunWhile(func() bool { return total() < 16 && eng.Now().Before(simStart.Add(12*time.Hour)) })
	a.Stop()
	if total() != 16 {
		t.Fatalf("settled %d/16 tasks by %v", total(), eng.Now())
	}
	conserve(t, "alpha", alpha.Master())
	conserve(t, "beta", beta.Master())
	if a.Stats().TenantCrashes != 1 {
		t.Fatalf("TenantCrashes = %d, want 1", a.Stats().TenantCrashes)
	}
	checkBooks(t, a)
}

// TestCrashLoopQuarantine trips the breaker: repeated master crashes
// inside the window quarantine the tenant — demand zero, pods
// released, even the quota floor handed back — for an exponentially
// growing backoff.
func TestCrashLoopQuarantine(t *testing.T) {
	eng, a := newLiveFleet(t, 23, 4, 12, []TenantConfig{
		{ID: "flaky", Weight: 1, QuotaMin: 2},
		{ID: "steady", Weight: 1},
	}, Config{Quarantine: QuarantinePolicy{
		CrashThreshold: 2,
		Window:         10 * time.Minute,
		Backoff:        5 * time.Minute,
		BackoffMax:     8 * time.Minute,
	}})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	flaky, _ := a.Tenant("flaky")
	steady, _ := a.Tenant("steady")
	eng.RunUntil(simStart.Add(3 * time.Minute))

	crashRestoreTenant := func() {
		if err := a.CrashTenantMaster("flaky"); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now().Add(10 * time.Second))
		if err := a.RestoreTenantMaster("flaky", 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	crashRestoreTenant()
	if a.Stats().QuarantineTrips != 0 {
		t.Fatal("breaker tripped below threshold")
	}
	crashRestoreTenant()
	if got := a.Stats().QuarantineTrips; got != 1 {
		t.Fatalf("QuarantineTrips = %d, want 1", got)
	}
	until1 := flaky.quarUntil
	if d := until1.Sub(eng.Now()); d <= 4*time.Minute || d > 5*time.Minute {
		t.Fatalf("first backoff = %v, want ~5m", d)
	}
	// While quarantined: zero grants despite the quota floor, and the
	// held pods drain back to the pool.
	eng.RunUntil(eng.Now().Add(time.Minute))
	if g := a.grant; g[flaky.idx] != 0 {
		t.Fatalf("quarantined tenant granted %d (floor must release)", g[flaky.idx])
	}
	// After expiry the tenant is re-planned and regains capacity.
	eng.RunWhile(func() bool {
		return livePods(flaky) == 0 && eng.Now().Before(until1.Add(30*time.Minute))
	})
	if livePods(flaky) == 0 {
		t.Fatal("tenant never recovered after quarantine expiry")
	}
	if eng.Now().Before(until1) {
		t.Fatal("tenant regained pods while still quarantined")
	}
	// A second trip doubles the backoff, capped at BackoffMax (8m).
	crashRestoreTenant()
	crashRestoreTenant()
	if got := a.Stats().QuarantineTrips; got != 2 {
		t.Fatalf("QuarantineTrips = %d, want 2", got)
	}
	if d := flaky.quarUntil.Sub(eng.Now()); d <= 7*time.Minute || d > 8*time.Minute {
		t.Fatalf("second backoff = %v, want ~8m (doubled, capped)", d)
	}
	// The bystander is untouched throughout: it keeps completing.
	eng.RunWhile(func() bool {
		return steady.Master().CompletedCount() < 12 && eng.Now().Before(simStart.Add(12*time.Hour))
	})
	if steady.Master().CompletedCount() != 12 {
		t.Fatalf("steady completed %d/12", steady.Master().CompletedCount())
	}
	a.Stop()
	checkBooks(t, a)
}

// TestDrainStateMachine covers the tri-state transitions the cycle
// never exercises on the happy path: surplus still-creating pods are
// canceled outright (never drained), and a pod killed underneath the
// arbiter requeues its tasks through the Killing event.
func TestDrainStateMachine(t *testing.T) {
	eng := simclock.NewEngine(simStart)
	cluster := kubesim.NewCluster(eng, kubesim.Config{
		InitialNodes:  2,
		MinNodes:      1,
		MaxNodes:      8,
		ProvisionMean: 20 * time.Minute, // slow: created pods stay Pending
		Seed:          5,
	})
	a := New(eng, cluster, Config{Cycle: 15 * time.Second, TotalWorkers: 6})
	ten, err := a.AddTenant(TenantConfig{ID: "only"})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, 8)
	for j := 0; j < 8; j++ {
		ids = append(ids, ten.Master().Submit(wq.TaskSpec{
			Category:  "work",
			Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
			Profile:   wq.Profile{ExecDuration: 5 * time.Minute, UsedCPUMilli: 870, UsedMemoryMB: 1700},
		}))
	}
	a.RunCycle()
	if ten.pods.Count(bind.PodCreating) == 0 {
		t.Fatal("no creating pods to cancel")
	}
	// Cancel most of the queue: demand collapses, surplus creating
	// pods must be canceled (deleted while Pending), not drained.
	for _, id := range ids[2:] {
		_ = ten.Master().Cancel(id)
	}
	drainedBefore := a.Stats().PodsDrained
	a.RunCycle()
	checkBooks(t, a)
	if a.Stats().PodsDrained != drainedBefore {
		t.Fatalf("creating pods were drained, not canceled: %d drains", a.Stats().PodsDrained-drainedBefore)
	}
	// Let the survivors start and run, then kill one pod underneath
	// the arbiter: the Killing event must requeue its tasks.
	eng.RunWhile(func() bool {
		return ten.Master().Stats().Running == 0 && eng.Now().Before(simStart.Add(2*time.Hour))
	})
	if ten.Master().Stats().Running == 0 {
		t.Fatal("no task ever ran")
	}
	var victim string
	for _, name := range ten.pods.Sorted() {
		if st, _ := ten.pods.State(name); st == bind.PodActive && ten.Master().WorkerBusy(name) {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no busy active pod to kill")
	}
	requeuesBefore := ten.Master().FailureStats().Requeues
	if err := cluster.DeletePod(victim); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now().Add(time.Second))
	checkBooks(t, a)
	if _, booked := ten.pods.State(victim); booked {
		t.Fatal("killed pod still booked")
	}
	if got := ten.Master().FailureStats().Requeues; got <= requeuesBefore {
		t.Fatal("pod kill requeued nothing")
	}
	// Drive to completion: every surviving task settles.
	for a.Stats().Cycles < 400 && ten.Master().CompletedCount()+ten.Master().QuarantinedCount() < 2 {
		eng.RunUntil(eng.Now().Add(15 * time.Second))
		a.RunCycle()
	}
	conserveLive(t, ten)
	checkBooks(t, a)
}

// conserveLive asserts conservation counting still-pending work.
func conserveLive(tb testing.TB, ten *Tenant) {
	tb.Helper()
	m := ten.Master()
	st := m.Stats()
	if got := m.CompletedCount() + m.QuarantinedCount() + m.ShedCount() + st.Waiting + st.Running; got != m.SubmittedCount()-canceledOf(m) {
		// Canceled tasks are terminal too; fold them in.
		tb.Fatalf("tenant %s live conservation: %d accounted of %d submitted", ten.ID(), got, m.SubmittedCount())
	}
}

// canceledOf counts canceled tasks (terminal but neither completed
// nor quarantined).
func canceledOf(m *wq.Master) int {
	n := 0
	for id := 1; id <= m.SubmittedCount(); id++ { // IDs start at 1
		if tk, ok := m.Task(id); ok && tk.State == wq.TaskCanceled {
			n++
		}
	}
	return n
}

// TestDrainChurnSeeded stresses the tri-state book-keeping under
// seeded churn: random submit bursts, cancels and pod kills, with the
// book invariants asserted after every step.
func TestDrainChurnSeeded(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eng, a := newLiveFleet(t, seed, 6, 4, []TenantConfig{
				{ID: "a", Weight: 2},
				{ID: "b", Weight: 1},
				{ID: "c", Weight: 1, QuotaMax: 3},
			}, Config{Cycle: 15 * time.Second})
			if err := a.Start(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 60; step++ {
				eng.RunUntil(eng.Now().Add(20 * time.Second))
				ten := a.Tenants()[rng.Intn(len(a.Tenants()))]
				switch rng.Intn(4) {
				case 0: // submit burst
					for j := 0; j < 1+rng.Intn(3); j++ {
						ten.Master().Submit(wq.TaskSpec{
							Category:  "work",
							Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
							Profile:   wq.Profile{ExecDuration: time.Duration(1+rng.Intn(4)) * time.Minute, UsedCPUMilli: 870, UsedMemoryMB: 1700},
						})
					}
				case 1: // kill a random booked pod
					if names := ten.pods.Sorted(); len(names) > 0 {
						_ = a.cluster.DeletePod(names[rng.Intn(len(names))])
					}
				case 2: // cancel a random waiting task
					ten.Master().ForEachWaiting(func(tk *wq.Task) {})
				}
				checkBooks(t, a)
			}
			// Drain the system dry and check final conservation.
			deadline := eng.Now().Add(8 * time.Hour)
			eng.RunWhile(func() bool {
				pending := 0
				for _, ten := range a.Tenants() {
					st := ten.Master().Stats()
					pending += st.Waiting + st.Running
				}
				return pending > 0 && eng.Now().Before(deadline)
			})
			a.Stop()
			for _, ten := range a.Tenants() {
				st := ten.Master().Stats()
				if st.Waiting+st.Running != 0 {
					t.Fatalf("tenant %s never drained: %+v", ten.ID(), st)
				}
				conserve(t, ten.ID(), ten.Master())
			}
			checkBooks(t, a)
		})
	}
}

// TestTenantPodLifecycleAllocs pins one steady-state tenant worker pod
// on a warm node (image cached, no provisioning, a resident worker
// keeping the fleet non-empty), driven through the arbiter's own glue —
// create → Started → AddWorker → drain → Succeeded → Deleted — at zero
// allocations, amortized, as HTA's TestWorkerPodLifecycleAllocs: the
// tenant's drain callback is bound once per arbiter generation.
func TestTenantPodLifecycleAllocs(t *testing.T) {
	eng := simclock.NewEngine(simStart)
	cluster := kubesim.NewCluster(eng, kubesim.Config{InitialNodes: 2, Seed: 1})
	t.Cleanup(cluster.Stop)
	a := New(eng, cluster, Config{})
	ten, err := a.AddTenant(TenantConfig{ID: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	// The resident and the first cycling pod pull the image.
	a.createPod(ten)
	a.createPod(ten)
	eng.RunFor(30 * time.Second)
	if active := ten.pods.Count(bind.PodActive); active != 2 {
		t.Fatalf("%d active workers after warm-up, want 2", active)
	}
	cycling := "solo-w2"
	lifecycle := func() {
		a.drainPod(ten, cycling)
		eng.RunFor(time.Second)
		if ten.pods.Len() != 1 {
			t.Fatalf("%s still booked after its drain", cycling)
		}
		a.createPod(ten)
		cycling = ten.pods.SelectDrain(1)[0] // the one creating pod
		eng.RunFor(3 * time.Second)          // bind, then start the container
		if ten.pods.Count(bind.PodActive) != 2 {
			t.Fatalf("%s did not become an active worker", cycling)
		}
	}
	// Grow the master's, the cluster's and the arbiter's amortized
	// tables.
	for range 64 {
		lifecycle()
	}
	allocs := testing.AllocsPerRun(100, lifecycle)
	t.Logf("%.0f allocations per tenant worker-pod lifecycle", allocs)
	if allocs != 0 {
		t.Errorf("one tenant worker-pod lifecycle allocates %.0f times, want 0", allocs)
	}
	checkBooks(t, a)
}
