package arbiter

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// randMix builds one randomized tenant mix on a fresh allocator.
func randMix(rng *rand.Rand) (*allocator, int) {
	n := 1 + rng.Intn(64)
	policy := PolicyFairShare
	if rng.Intn(8) == 0 {
		policy = PolicyGreedy
	}
	al := &allocator{policy: policy, total: int64(rng.Intn(300))}
	for i := 0; i < n; i++ {
		weight := int64(1 + rng.Intn(16))
		floor := int64(rng.Intn(4))
		var ceil int64
		if rng.Intn(3) == 0 {
			ceil = floor + int64(rng.Intn(6))
		}
		al.addTenant(weight, floor, ceil, int32(rng.Intn(3)))
	}
	// Random virtual-service starting points: the remainder ordering
	// must agree from any counter state, not just all-zero.
	for i := range al.vsvc {
		al.vsvc[i] = int64(rng.Intn(50)) * vsvcUnit
	}
	return al, n
}

func diffOneMix(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	al, n := randMix(rng)
	demand := make([]int64, n)
	grant := make([]int64, n)
	// Several sequential cycles so the committed virtual-service
	// counters evolve — the rotation state is part of the contract.
	for cycle := 0; cycle < 5; cycle++ {
		for i := range demand {
			demand[i] = int64(rng.Intn(40)) - 2 // occasionally negative
		}
		al.allocate(demand, grant)
		ref := referenceAllocate(refInput{
			policy: al.policy, total: al.total,
			weight: al.weight, floor: al.floor, ceil: al.ceil,
			prio: al.prio, vsvc: al.vsvc, demand: demand,
		})
		if !slices.Equal(grant, ref) {
			t.Fatalf("seed %d cycle %d: packed %v != reference %v\ndemand %v\nweights %v floors %v ceils %v prios %v vsvc %v",
				seed, cycle, grant, ref, demand, al.weight, al.floor, al.ceil, al.prio, al.vsvc)
		}
		checkInvariants(t, al, demand, grant, seed, cycle)
		al.commit(grant)
	}
}

// checkInvariants asserts the allocation laws that hold regardless of
// the exact water-filling arithmetic.
func checkInvariants(t *testing.T, al *allocator, demand, grant []int64, seed int64, cycle int) {
	t.Helper()
	var sumGrant, sumCap, sumFloorWant int64
	for i := range grant {
		c := max(demand[i], 0)
		if al.ceil[i] > 0 {
			c = min(c, al.ceil[i])
		}
		if grant[i] < 0 || grant[i] > c {
			t.Fatalf("seed %d cycle %d: grant[%d]=%d outside [0, cap=%d]", seed, cycle, i, grant[i], c)
		}
		sumGrant += grant[i]
		sumCap += c
		sumFloorWant += min(c, al.floor[i])
	}
	if sumGrant > al.total {
		t.Fatalf("seed %d cycle %d: Σgrant %d > total %d", seed, cycle, sumGrant, al.total)
	}
	// Work-conserving: capacity is only left over when demand ran out.
	if sumGrant < min(sumCap, al.total) {
		t.Fatalf("seed %d cycle %d: Σgrant %d < min(Σcap %d, total %d) — capacity stranded",
			seed, cycle, sumGrant, sumCap, al.total)
	}
	// Floors honored whenever jointly feasible (fair-share only; the
	// greedy baseline ignores them by design).
	if al.policy == PolicyFairShare && sumFloorWant <= al.total {
		for i := range grant {
			c := max(demand[i], 0)
			if al.ceil[i] > 0 {
				c = min(c, al.ceil[i])
			}
			if owed := min(c, al.floor[i]); grant[i] < owed {
				t.Fatalf("seed %d cycle %d: grant[%d]=%d below feasible floor %d", seed, cycle, i, grant[i], owed)
			}
		}
	}
}

// TestAllocatorDifferential holds the packed allocator byte-identical
// to the naive reference across 1000 randomized tenant mixes × 5
// evolving cycles each.
func TestAllocatorDifferential(t *testing.T) {
	mixes := 1000
	if testing.Short() {
		mixes = 100
	}
	for seed := int64(0); seed < int64(mixes); seed++ {
		diffOneMix(t, seed)
	}
}

// TestArbiterControllerDifferential runs the incremental and reference
// arbiters side by side against one live cluster scenario: every cycle
// both plan from the same pre-commit state and must produce identical
// grants, while pods churn through creation, connection, task
// execution and drains underneath.
func TestArbiterControllerDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eng := simclock.NewEngine(simStart)
			cluster := kubesim.NewCluster(eng, kubesim.Config{
				InitialNodes:  3,
				MinNodes:      1,
				MaxNodes:      6,
				ProvisionMean: 45 * time.Second,
				Seed:          seed,
			})
			a := New(eng, cluster, Config{Cycle: 15 * time.Second, TotalWorkers: 6})
			rng := rand.New(rand.NewSource(seed))
			cfgs := []TenantConfig{
				{ID: "a", Weight: 2},
				{ID: "b", Weight: 1, QuotaMin: 1},
				{ID: "c", Weight: 1, QuotaMax: 2},
				{ID: "d", Weight: 3, Priority: 1},
			}
			total := 0
			for _, cfg := range cfgs {
				ten, err := a.AddTenant(cfg)
				if err != nil {
					t.Fatal(err)
				}
				tasks := 4 + rng.Intn(5)
				for j := 0; j < tasks; j++ {
					spec := wq.TaskSpec{
						Category: fmt.Sprintf("cat%d", j%2),
						Profile: wq.Profile{
							ExecDuration: time.Duration(30+rng.Intn(90)) * time.Second,
							UsedCPUMilli: 870, UsedMemoryMB: 1700,
						},
					}
					if j%3 != 0 { // mix declared and undeclared tasks
						spec.Resources = resources.Vector{MilliCPU: 870, MemoryMB: 1700}
					}
					ten.Master().Submit(spec)
					total++
				}
			}
			cycles := 0
			eng.Every(a.cfg.Cycle, "diff-cycle", func() {
				a.plan(a.grant)
				if ref := a.referencePlan(); !slices.Equal(a.grant, ref) {
					t.Fatalf("cycle %d at %v: incremental %v != reference %v",
						cycles, eng.Now(), a.grant, ref)
				}
				a.al.commit(a.grant)
				a.apply(a.grant)
				cycles++
			})
			done := func() int {
				n := 0
				for _, ten := range a.Tenants() {
					n += ten.Master().CompletedCount()
				}
				return n
			}
			deadline := simStart.Add(4 * time.Hour)
			eng.RunWhile(func() bool { return done() < total && eng.Now().Before(deadline) })
			if done() != total {
				t.Fatalf("completed %d/%d by %v", done(), total, eng.Now())
			}
			if cycles < 5 {
				t.Fatalf("only %d arbitration cycles ran", cycles)
			}
		})
	}
}

// TestArbiterEJPlanDifferential runs an E-J-shaped tenant set — 100
// tenants in a BLAST / I/O / stream mix (undeclared bursts, small
// declared tasks, declared tasks trickling in) under bounded admission
// on a 20-worker cluster — through each E-J cell: fair share, greedy,
// and fair share with quota floors and ceilings. At every arbitration
// instant, just before the arbiter's own cycle, it plans twice from
// the same state: the full re-plan and the incremental plan with its
// memoized digests. The grants must agree, or the memo served a digest
// its tenant's revision no longer backs.
func TestArbiterEJPlanDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, cell := range []struct {
		name   string
		policy Policy
		quota  bool
	}{
		{"fair-share", PolicyFairShare, false},
		{"greedy", PolicyGreedy, false},
		{"fair-share+quota", PolicyFairShare, true},
	} {
		t.Run(cell.name, func(t *testing.T) {
			cycles, mismatches := runEJShaped(t, cell.policy, cell.quota)
			if mismatches > 0 {
				t.Errorf("%d of %d cycles disagree", mismatches, cycles)
			}
			if cycles < 30 {
				t.Errorf("only %d arbitration cycles checked", cycles)
			}
		})
	}
}

// runEJShaped runs one E-J-shaped cell to completion with the plan
// check before every arbitration cycle, and returns the cycles checked
// and the ones that disagreed.
func runEJShaped(t *testing.T, policy Policy, quota bool) (cycles, mismatches int) {
	const (
		tenants = 100
		workers = 20
		cycle   = 30 * time.Second
	)
	eng := simclock.NewEngine(simStart)
	cluster := kubesim.NewCluster(eng, kubesim.Config{
		InitialNodes:  workers / 4,
		MinNodes:      1,
		MaxNodes:      workers,
		ProvisionMean: 90 * time.Second,
		Seed:          1,
	})
	a := New(eng, cluster, Config{Cycle: cycle, TotalWorkers: workers, Policy: policy})
	rng := rand.New(rand.NewSource(1))
	total, done := 0, 0
	terminal := func() { done++ }
	for i := 0; i < tenants; i++ {
		tc := TenantConfig{ID: fmt.Sprintf("t%05d", i), Weight: 1}
		var specs []wq.TaskSpec
		var at []time.Duration
		switch i % 3 {
		case 0: // BLAST: an undeclared burst of node-heavy tasks
			if quota {
				tc.QuotaMax = max(1, 2*workers/tenants)
			}
			for j := 0; j < 18; j++ {
				specs = append(specs, wq.TaskSpec{Category: "blast", Profile: wq.Profile{
					ExecDuration: time.Duration(45+rng.Intn(31)) * time.Second,
					UsedCPUMilli: 870, UsedMemoryMB: 1700,
				}})
				at = append(at, 0)
			}
		case 1: // I/O: many small declared tasks
			for j := 0; j < 24; j++ {
				specs = append(specs, wq.TaskSpec{
					Category:  "io",
					Resources: resources.Vector{MilliCPU: 150, MemoryMB: 512},
					Profile: wq.Profile{
						ExecDuration: time.Duration(20+rng.Intn(21)) * time.Second,
						UsedCPUMilli: 150, UsedMemoryMB: 512,
					},
				})
				at = append(at, 0)
			}
		case 2: // stream: declared long tasks trickling in
			tc.Weight = 2
			if quota {
				tc.QuotaMin = 1
			}
			for j := 0; j < 16; j++ {
				specs = append(specs, wq.TaskSpec{
					Category:  "stream",
					Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
					Profile: wq.Profile{
						ExecDuration: time.Duration(100+rng.Intn(41)) * time.Second,
						UsedCPUMilli: 870, UsedMemoryMB: 1700,
					},
				})
				at = append(at, time.Duration(j)*45*time.Second+time.Duration(rng.Intn(int(45*time.Second/4))))
			}
		}
		ten, err := a.AddTenant(tc)
		if err != nil {
			t.Fatal(err)
		}
		m := ten.Master()
		m.SetAdmissionPolicy(wq.AdmissionPolicy{MaxWaiting: 12, BufferDepth: 64})
		m.OnComplete(func(wq.Result) { terminal() })
		m.OnTaskFailed(func(wq.Task) { terminal() })
		m.OnRejected(func(wq.Task) { terminal() })
		for j, spec := range specs {
			total++
			if at[j] == 0 {
				m.Submit(spec)
				continue
			}
			eng.After(at[j], "tenant-submit", func() { m.Submit(spec) })
		}
	}
	// Created before the arbiter's ticker, so it fires first at each
	// shared instant.
	eng.Every(cycle, "ej-differential", func() {
		ref := a.referencePlan()
		a.plan(a.grant)
		if !slices.Equal(a.grant, ref) {
			if mismatches++; mismatches <= 3 {
				t.Errorf("cycle at %v: incremental grants %v, reference %v", eng.Now(), a.grant, ref)
			}
		}
		cycles++
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := simStart.Add(12 * time.Hour)
	eng.RunWhile(func() bool { return done < total && eng.Now().Before(deadline) })
	a.Stop()
	if done != total {
		t.Fatalf("stalled: %d/%d terminal by %v", done, total, eng.Now())
	}
	return cycles, mismatches
}
