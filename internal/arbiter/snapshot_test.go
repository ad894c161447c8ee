package arbiter

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hta/internal/bind"
	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// restoreFleetCfgs is the tenant mix shared by the crash-consistency
// tests: weights, a floor, a ceiling and a priority class, so the
// restored virtual-service counters actually matter.
var restoreFleetCfgs = []TenantConfig{
	{ID: "a", Weight: 2},
	{ID: "b", Weight: 1, QuotaMin: 1},
	{ID: "c", Weight: 1, QuotaMax: 2},
	{ID: "d", Weight: 1, Priority: 1},
}

// TestArbiterRestoreDifferential is the house differential for
// crash-consistency: two identical fleets run in lockstep under
// manual cycles; fleet B crashes and restores mid-run at the same
// instant. Every post-restore cycle must grant exactly what the
// uninterrupted fleet grants, and the final books must match.
func TestArbiterRestoreDifferential(t *testing.T) {
	for _, crashAt := range []int{1, 5, 12} {
		t.Run(fmt.Sprintf("crashCycle%d", crashAt), func(t *testing.T) {
			engA, fa := newLiveFleet(t, 31, 6, 10, restoreFleetCfgs, Config{Cycle: 15 * time.Second})
			engB, fb := newLiveFleet(t, 31, 6, 10, restoreFleetCfgs, Config{Cycle: 15 * time.Second})
			for cycle := 1; cycle <= 40; cycle++ {
				at := simStart.Add(time.Duration(cycle) * 15 * time.Second)
				engA.RunUntil(at)
				engB.RunUntil(at)
				if cycle == crashAt {
					snap, ok := fb.Crash()
					if !ok {
						t.Fatal("crash refused")
					}
					if fb.RunCycle(); fb.Stats().Cycles != cycle-1 {
						t.Fatal("RunCycle ran while down")
					}
					fb.Restore(snap)
				}
				fa.RunCycle()
				fb.RunCycle()
				if !slices.Equal(fa.grant, fb.grant) {
					t.Fatalf("cycle %d: restored grants %v != uninterrupted %v", cycle, fb.grant, fa.grant)
				}
				if !slices.Equal(fa.al.vsvc, fb.al.vsvc) {
					t.Fatalf("cycle %d: vsvc diverged: %v != %v", cycle, fb.al.vsvc, fa.al.vsvc)
				}
			}
			if fb.Stats().Restores != 1 {
				t.Fatalf("Restores = %d, want 1", fb.Stats().Restores)
			}
			for i, ta := range fa.Tenants() {
				tb := fb.Tenants()[i]
				if ta.ID() != tb.ID() || bookCounts(ta) != bookCounts(tb) {
					t.Fatalf("tenant %s books diverged: %v != %v", ta.ID(), bookCounts(tb), bookCounts(ta))
				}
				if ta.Master().CompletedCount() != tb.Master().CompletedCount() {
					t.Fatalf("tenant %s completions diverged: %d != %d",
						ta.ID(), tb.Master().CompletedCount(), ta.Master().CompletedCount())
				}
			}
			checkBooks(t, fa)
			checkBooks(t, fb)
		})
	}
}

// TestArbiterCrashMidRun exercises a real outage: drains complete and
// pods change state while the arbiter is down. The fenced callbacks
// must not touch pods, the restore reconcile must release the
// finished drains and adopt the missed starts, no pod leaks, no
// capacity is double-granted, and the workload completes with
// conservation intact.
func TestArbiterCrashMidRun(t *testing.T) {
	eng, a := newLiveFleet(t, 41, 6, 8, restoreFleetCfgs, Config{Cycle: 15 * time.Second})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	busyPods := func() int {
		n := 0
		for _, ten := range a.Tenants() {
			n += ten.pods.Count(bind.PodActive)
		}
		return n
	}
	eng.RunWhile(func() bool {
		return busyPods() < 4 && eng.Now().Before(simStart.Add(time.Hour))
	})
	if busyPods() < 4 {
		t.Fatal("fleet never warmed")
	}
	// Put drains in flight on busy workers (running tasks pin the
	// drains open), then crash.
	var victim *Tenant
	for _, ten := range a.Tenants() {
		if ten.pods.Count(bind.PodActive) > 0 && ten.Master().Stats().Running > 0 {
			victim = ten
			break
		}
	}
	if victim == nil {
		t.Fatal("no tenant with busy active pods")
	}
	a.drainTenantPods(victim)
	genBefore := a.gen
	snap, ok := a.Crash()
	if !ok {
		t.Fatal("crash refused")
	}
	if !a.down || a.gen != genBefore+1 {
		t.Fatalf("down=%v gen=%d after crash", a.down, a.gen)
	}
	if _, again := a.Crash(); again {
		t.Fatal("double crash succeeded")
	}
	// Outage: tasks finish, drains complete, their callbacks are
	// fenced, the pods they could not delete stay behind.
	eng.RunUntil(eng.Now().Add(4 * time.Minute))
	if a.Stats().FencedCallbacks == 0 {
		t.Fatal("no drain callback was fenced during the outage")
	}
	a.Restore(snap)
	if a.down {
		t.Fatal("still down after restore")
	}
	if a.Stats().ReconcileCorrections == 0 {
		t.Fatal("restore reconciled nothing despite completed drains")
	}
	// Books match the live cluster exactly after the reconcile.
	checkBooks(t, a)
	for _, ten := range a.Tenants() {
		for _, name := range ten.pods.Sorted() {
			if _, live := a.cluster.GetPod(name); !live {
				t.Fatalf("tenant %s books dead pod %s", ten.ID(), name)
			}
		}
	}
	// Run to completion under the re-armed ticker; capacity is never
	// double-granted.
	total := func() int {
		n := 0
		for _, ten := range a.Tenants() {
			n += ten.Master().CompletedCount() + ten.Master().QuarantinedCount()
		}
		return n
	}
	eng.RunWhile(func() bool {
		var granted int64
		for _, g := range a.grant {
			granted += g
		}
		if granted > int64(a.cfg.TotalWorkers) {
			t.Fatalf("grants sum %d over the %d-worker budget", granted, a.cfg.TotalWorkers)
		}
		return total() < 32 && eng.Now().Before(simStart.Add(12*time.Hour))
	})
	a.Stop()
	if total() != 32 {
		t.Fatalf("settled %d/32 tasks", total())
	}
	for _, ten := range a.Tenants() {
		conserve(t, ten.ID(), ten.Master())
	}
	// No leaked pods once everything drains out on later cycles.
	if a.Stats().Restores != 1 {
		t.Fatalf("Restores = %d, want 1", a.Stats().Restores)
	}
	checkBooks(t, a)
}

// TestArbiterRestoreStaleSnapshot restores from a snapshot older than
// the crash (the etcd-lag case): pods created after the snapshot are
// unknown to it and must be adopted back through their labels, with
// the pod-name sequence advanced past every adopted suffix.
func TestArbiterRestoreStaleSnapshot(t *testing.T) {
	eng, a := newLiveFleet(t, 47, 6, 10, restoreFleetCfgs, Config{Cycle: 15 * time.Second})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(simStart.Add(time.Minute))
	stale := a.Snapshot()
	createdAtSnap := a.Stats().PodsCreated
	// Keep running: more pods are created beyond the snapshot's view.
	eng.RunWhile(func() bool {
		return a.Stats().PodsCreated == createdAtSnap && eng.Now().Before(simStart.Add(time.Hour))
	})
	if a.Stats().PodsCreated == createdAtSnap {
		t.Fatal("no pods created after the snapshot")
	}
	if _, ok := a.Crash(); !ok {
		t.Fatal("crash refused")
	}
	a.Restore(stale)
	if a.Stats().ReconcileCorrections == 0 {
		t.Fatal("nothing adopted from a stale snapshot")
	}
	checkBooks(t, a)
	// Every live managed pod is booked again, and new names never
	// collide with adopted ones.
	for _, pod := range a.cluster.ListPods(map[string]string{"managed-by": "arbiter"}) {
		if pod.Phase == kubesim.PodSucceeded {
			continue
		}
		if _, booked := a.podOwner[pod.Name]; !booked {
			t.Fatalf("live pod %s not re-adopted", pod.Name)
		}
	}
	for _, ten := range a.Tenants() {
		if seq, ok := maxBookedSeq(ten); ok && ten.pods.Seq() < seq {
			t.Fatalf("tenant %s podSeq %d below adopted suffix %d", ten.ID(), ten.pods.Seq(), seq)
		}
	}
	total := func() int {
		n := 0
		for _, ten := range a.Tenants() {
			n += ten.Master().CompletedCount() + ten.Master().QuarantinedCount()
		}
		return n
	}
	eng.RunWhile(func() bool { return total() < 40 && eng.Now().Before(simStart.Add(12*time.Hour)) })
	a.Stop()
	if total() != 40 {
		t.Fatalf("settled %d/40 tasks", total())
	}
	checkBooks(t, a)
}

func maxBookedSeq(t *Tenant) (int, bool) {
	best, found := 0, false
	for _, name := range t.pods.Sorted() {
		if seq, err := strconv.Atoi(strings.TrimPrefix(name, t.cfg.ID+"-w")); err == nil {
			found = true
			if seq > best {
				best = seq
			}
		}
	}
	return best, found
}

// TestArbiterRestoreZeroAlloc re-asserts the perf headline after a
// crash/restore: the restored arbiter's steady-state cycle still
// performs zero heap allocations.
func TestArbiterRestoreZeroAlloc(t *testing.T) {
	_, a := newTestFleet(t, 64, 6, 1000)
	a.RunCycle()
	a.RunCycle()
	snap, ok := a.Crash()
	if !ok {
		t.Fatal("crash refused")
	}
	a.Restore(snap)
	a.RunCycle() // warm: every tenant replans post-restore
	a.RunCycle()
	allocs := testing.AllocsPerRun(100, func() { a.RunCycle() })
	if allocs != 0 {
		t.Fatalf("post-restore steady-state cycle allocates %.1f times, want 0", allocs)
	}
}

// TestDrainFenceAcrossRestore pins the generation fence end to end on
// a minimal fixture: a drain registered by incarnation g completes
// after the crash; its callback must not delete the pod, and the
// reconcile registered by incarnation g+1 must.
func TestDrainFenceAcrossRestore(t *testing.T) {
	eng := simclock.NewEngine(simStart)
	cluster := kubesim.NewCluster(eng, kubesim.Config{InitialNodes: 2, MinNodes: 1, MaxNodes: 4, Seed: 9})
	a := New(eng, cluster, Config{Cycle: 15 * time.Second, TotalWorkers: 2})
	ten, err := a.AddTenant(TenantConfig{ID: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	ten.Master().Submit(wq.TaskSpec{
		Category:  "work",
		Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
		Profile:   wq.Profile{ExecDuration: 3 * time.Minute, UsedCPUMilli: 870, UsedMemoryMB: 1700},
	})
	a.RunCycle()
	eng.RunWhile(func() bool {
		return ten.Master().Stats().Running == 0 && eng.Now().Before(simStart.Add(time.Hour))
	})
	if active := ten.pods.Count(bind.PodActive); active != 1 || ten.Master().Stats().Running == 0 {
		t.Fatalf("task never ran: %d active pods, %d running", active, ten.Master().Stats().Running)
	}
	a.drainTenantPods(ten) // busy worker: drain stays open until the task ends
	snap, _ := a.Crash()
	eng.RunUntil(eng.Now().Add(10 * time.Minute)) // task ends, drain completes, callback fenced
	if a.Stats().FencedCallbacks != 1 {
		t.Fatalf("FencedCallbacks = %d, want 1", a.Stats().FencedCallbacks)
	}
	if n := len(cluster.ListPods(map[string]string{"tenant": "solo"})); n != 1 {
		t.Fatalf("fenced callback changed the cluster: %d pods", n)
	}
	a.Restore(snap)
	eng.RunUntil(eng.Now().Add(time.Minute))
	// The new incarnation's reconcile released the finished drain.
	live := 0
	for _, pod := range cluster.ListPods(map[string]string{"tenant": "solo"}) {
		if pod.Phase != kubesim.PodSucceeded {
			live++
		}
	}
	if live != 0 || ten.pods.Len() != 0 {
		t.Fatalf("finished drain not released: %d live pods, %d booked", live, ten.pods.Len())
	}
	conserve(t, "solo", ten.Master())
}
