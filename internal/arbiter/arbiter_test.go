package arbiter

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

var simStart = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// mkAlloc builds an allocator from per-tenant (weight, floor, ceil,
// prio) rows.
func mkAlloc(policy Policy, total int64, rows [][4]int64) *allocator {
	al := &allocator{policy: policy, total: total}
	for _, r := range rows {
		al.addTenant(r[0], r[1], r[2], int32(r[3]))
	}
	return al
}

func runAlloc(al *allocator, demand []int64) []int64 {
	grant := make([]int64, len(demand))
	al.allocate(demand, grant)
	return grant
}

// TestAllocateWaterFill pins the allocation spec on table-driven
// cases, including the degenerate ones: one tenant, zero demand,
// all-equal weights, ceiling-bound tenants, oversubscribed floors,
// priority classes and the greedy baseline.
func TestAllocateWaterFill(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		total  int64
		rows   [][4]int64 // weight, floor, ceil, prio
		demand []int64
		want   []int64
	}{
		{
			name:  "one tenant under capacity",
			total: 10, rows: [][4]int64{{1, 0, 0, 0}},
			demand: []int64{4}, want: []int64{4},
		},
		{
			name:  "one tenant over capacity",
			total: 10, rows: [][4]int64{{1, 0, 0, 0}},
			demand: []int64{25}, want: []int64{10},
		},
		{
			name:  "zero demand",
			total: 10, rows: [][4]int64{{1, 0, 0, 0}, {4, 2, 0, 0}},
			demand: []int64{0, 0}, want: []int64{0, 0},
		},
		{
			name:  "negative demand clamped",
			total: 10, rows: [][4]int64{{1, 0, 0, 0}},
			demand: []int64{-3}, want: []int64{0},
		},
		{
			name:  "all-equal weights split evenly",
			total: 6, rows: [][4]int64{{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}},
			demand: []int64{10, 10, 10}, want: []int64{2, 2, 2},
		},
		{
			name:  "weights are proportional",
			total: 6, rows: [][4]int64{{1, 0, 0, 0}, {2, 0, 0, 0}, {3, 0, 0, 0}},
			demand: []int64{10, 10, 10}, want: []int64{1, 2, 3},
		},
		{
			name:  "abundance satisfies everyone",
			total: 100, rows: [][4]int64{{1, 0, 0, 0}, {7, 0, 0, 0}, {2, 0, 0, 0}},
			demand: []int64{5, 9, 3}, want: []int64{5, 9, 3},
		},
		{
			name:  "ceiling-bound tenant releases surplus",
			total: 9, rows: [][4]int64{{1, 0, 2, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}},
			demand: []int64{5, 5, 5}, want: []int64{2, 4, 3},
		},
		{
			name:  "ceiling below demand binds in abundance",
			total: 100, rows: [][4]int64{{1, 0, 3, 0}, {1, 0, 0, 0}},
			demand: []int64{10, 10}, want: []int64{3, 10},
		},
		{
			name:  "floor guaranteed before discretionary",
			total: 4, rows: [][4]int64{{1, 3, 0, 0}, {1, 0, 0, 0}},
			demand: []int64{5, 5}, want: []int64{4, 0},
		},
		{
			name:  "floor capped at demand",
			total: 6, rows: [][4]int64{{1, 4, 0, 0}, {1, 0, 0, 0}},
			demand: []int64{1, 10}, want: []int64{1, 5},
		},
		{
			name:  "oversubscribed floors water-fill by weight",
			total: 4, rows: [][4]int64{{1, 4, 0, 0}, {3, 4, 0, 0}},
			demand: []int64{9, 9}, want: []int64{1, 3},
		},
		{
			name:  "higher class drains first",
			total: 5, rows: [][4]int64{{1, 0, 0, 1}, {1, 0, 0, 0}},
			demand: []int64{4, 4}, want: []int64{4, 1},
		},
		{
			name:  "floors cross class boundaries",
			total: 4, rows: [][4]int64{{1, 0, 0, 1}, {1, 2, 0, 0}},
			demand: []int64{4, 4}, want: []int64{2, 2},
		},
		{
			name:   "greedy takes in index order",
			policy: PolicyGreedy,
			total:  5, rows: [][4]int64{{1, 0, 0, 0}, {9, 5, 0, 1}},
			demand: []int64{4, 4}, want: []int64{4, 1},
		},
		{
			name:   "greedy honors ceilings",
			policy: PolicyGreedy,
			total:  5, rows: [][4]int64{{1, 0, 2, 0}, {1, 0, 0, 0}},
			demand: []int64{4, 4}, want: []int64{2, 3},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			al := mkAlloc(c.policy, c.total, c.rows)
			got := runAlloc(al, c.demand)
			if !slices.Equal(got, c.want) {
				t.Fatalf("allocate(%v) = %v, want %v", c.demand, got, c.want)
			}
			// The reference must agree on every pinned case too.
			ref := referenceAllocate(refInput{
				policy: c.policy, total: c.total,
				weight: al.weight, floor: al.floor, ceil: al.ceil,
				prio: al.prio, vsvc: al.vsvc, demand: c.demand,
			})
			if !slices.Equal(ref, c.want) {
				t.Fatalf("referenceAllocate(%v) = %v, want %v", c.demand, ref, c.want)
			}
		})
	}
}

// TestAllocateDeficitRotation pins stage 5: with one worker and three
// equal tenants, the virtual-service counter rotates the grant across
// cycles instead of pinning it to tenant 0.
func TestAllocateDeficitRotation(t *testing.T) {
	al := mkAlloc(PolicyFairShare, 1, [][4]int64{{1, 0, 0, 0}, {1, 0, 0, 0}, {1, 0, 0, 0}})
	demand := []int64{5, 5, 5}
	var got [][]int64
	for cycle := 0; cycle < 3; cycle++ {
		g := runAlloc(al, demand)
		al.commit(g)
		got = append(got, g)
	}
	want := [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("cycle %d grant = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestAllocateWeightedRotation checks the deficit counter is weight-
// normalized: over many scarce cycles a weight-2 tenant accumulates
// twice the grants of a weight-1 tenant.
func TestAllocateWeightedRotation(t *testing.T) {
	al := mkAlloc(PolicyFairShare, 1, [][4]int64{{2, 0, 0, 0}, {1, 0, 0, 0}})
	demand := []int64{100, 100}
	totals := []int64{0, 0}
	for cycle := 0; cycle < 30; cycle++ {
		g := runAlloc(al, demand)
		al.commit(g)
		totals[0] += g[0]
		totals[1] += g[1]
	}
	if totals[0] != 20 || totals[1] != 10 {
		t.Fatalf("30 scarce cycles split %v, want [20 10]", totals)
	}
}

// newTestFleet builds an arbiter over n tenants on a cluster that is
// never run: every tenant holds tasksEach declared waiting tasks, so
// demand digests are non-trivial but the master state is frozen. The
// engine is returned for tests that do run it.
func newTestFleet(tb testing.TB, n, tasksEach, totalWorkers int) (*simclock.Engine, *Arbiter) {
	tb.Helper()
	eng := simclock.NewEngine(simStart)
	cluster := kubesim.NewCluster(eng, kubesim.Config{
		InitialNodes: 1,
		MinNodes:     1,
		MaxNodes:     4,
		Seed:         1,
	})
	a := New(eng, cluster, Config{Cycle: 30 * time.Second, TotalWorkers: totalWorkers})
	for i := 0; i < n; i++ {
		ten, err := a.AddTenant(TenantConfig{ID: fmt.Sprintf("t%04d", i), Weight: 1 + i%3})
		if err != nil {
			tb.Fatal(err)
		}
		for j := 0; j < tasksEach; j++ {
			ten.Master().Submit(wq.TaskSpec{
				Category:  fmt.Sprintf("cat%d", i%4),
				Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
				Profile:   wq.Profile{ExecDuration: time.Minute, UsedCPUMilli: 870, UsedMemoryMB: 1700},
			})
		}
	}
	return eng, a
}

// TestDirtyTracking checks the memoization contract: an untouched
// tenant is served from the memo, and every mutation class that can
// change the digest — submission, cancellation, worker connect,
// arbiter-initiated drain — forces exactly the dirty tenants to
// re-plan.
func TestDirtyTracking(t *testing.T) {
	_, a := newTestFleet(t, 8, 4, 0) // TotalWorkers 0: no pods, pure planning
	a.RunCycle()
	if got := a.Stats().Replans; got != 8 {
		t.Fatalf("first cycle replans = %d, want 8", got)
	}
	a.RunCycle()
	st := a.Stats()
	if st.Replans != 8 || st.Skipped != 8 {
		t.Fatalf("clean cycle: replans=%d skipped=%d, want 8/8", st.Replans, st.Skipped)
	}
	// One tenant submits: only it re-plans.
	a.tenants[3].Master().Submit(wq.TaskSpec{
		Category:  "extra",
		Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
		Profile:   wq.Profile{ExecDuration: time.Minute, UsedCPUMilli: 870},
	})
	before := a.Stats().Replans
	a.RunCycle()
	if got := a.Stats().Replans - before; got != 1 {
		t.Fatalf("after one submit, replans = %d, want 1", got)
	}
	// The memoized digest must equal a fresh full recompute for every
	// tenant — the soundness claim behind skipping.
	for _, ten := range a.tenants {
		if fresh := a.referenceDigest(ten); fresh != ten.demand {
			t.Fatalf("tenant %s memoized demand %d != fresh digest %d", ten.ID(), ten.demand, fresh)
		}
	}
}

// TestArbiterEndToEnd is the pod-glue smoke test: tenants with real
// workloads on a live cluster run to completion under the arbitration
// loop, workers are created and drained through the kubesim pod
// lifecycle, and the books balance.
func TestArbiterEndToEnd(t *testing.T) {
	eng := simclock.NewEngine(simStart)
	cluster := kubesim.NewCluster(eng, kubesim.Config{
		InitialNodes:  4,
		MinNodes:      1,
		MaxNodes:      8,
		ProvisionMean: 30 * time.Second,
		Seed:          7,
	})
	a := New(eng, cluster, Config{Cycle: 20 * time.Second, TotalWorkers: 8})
	cfgs := []TenantConfig{
		{ID: "alpha", Weight: 2},
		{ID: "beta", Weight: 1, QuotaMin: 1},
		{ID: "gamma", Weight: 1, QuotaMax: 2},
		{ID: "delta", Weight: 1, Priority: 1},
	}
	total := 0
	for _, cfg := range cfgs {
		ten, err := a.AddTenant(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			ten.Master().Submit(wq.TaskSpec{
				Category:  "work",
				Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
				Profile:   wq.Profile{ExecDuration: 90 * time.Second, UsedCPUMilli: 870, UsedMemoryMB: 1700},
			})
			total++
		}
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	done := func() int {
		n := 0
		for _, ten := range a.Tenants() {
			n += ten.Master().CompletedCount()
		}
		return n
	}
	deadline := simStart.Add(4 * time.Hour)
	eng.RunWhile(func() bool { return done() < total && eng.Now().Before(deadline) })
	a.Stop()
	if done() != total {
		t.Fatalf("completed %d/%d tasks by %v", done(), total, eng.Now())
	}
	st := a.Stats()
	if st.PodsCreated == 0 || st.Cycles == 0 {
		t.Fatalf("arbiter did no work: %+v", st)
	}
	if st.Replans+st.Skipped != st.Cycles*len(cfgs) {
		t.Fatalf("replans %d + skipped %d != cycles %d × tenants %d", st.Replans, st.Skipped, st.Cycles, len(cfgs))
	}
	// Quota ceiling held: gamma never exceeded 2 pods at once.
	gamma, _ := a.Tenant("gamma")
	if livePods(gamma) > 2 {
		t.Fatalf("gamma holds %d pods past its ceiling", livePods(gamma))
	}
}

// TestArbiterCycleZeroAlloc asserts the perf headline's allocation
// half: once grants stabilize, a full arbitration cycle (plan +
// commit + apply) performs zero heap allocations.
func TestArbiterCycleZeroAlloc(t *testing.T) {
	_, a := newTestFleet(t, 64, 6, 1000) // abundant capacity: grants = demand, stable
	a.RunCycle()                         // warm: digests all tenants, creates pods
	a.RunCycle()                         // steady
	allocs := testing.AllocsPerRun(100, func() { a.RunCycle() })
	if allocs != 0 {
		t.Fatalf("steady-state cycle allocates %.1f times, want 0", allocs)
	}
	if st := a.Stats(); st.Replans != 64 {
		t.Fatalf("steady-state cycles re-planned: %+v", st)
	}
}
