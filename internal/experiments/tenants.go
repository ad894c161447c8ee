package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hta/internal/arbiter"
	"hta/internal/kubesim"
	"hta/internal/metrics"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// TenantsEJConfig parameterizes experiment E-J: T tenants with mixed
// BLAST / I/O / stream workloads multiplexed onto one cluster by the
// arbiter, compared across allocation policies.
type TenantsEJConfig struct {
	Seed    int64
	Tenants int
	// TotalWorkers is the cluster-wide worker budget C the arbiter
	// divides (and the cluster's node quota — one node-sized worker
	// per node).
	TotalWorkers int
	Kube         kubesim.Config
	// Cycle is the arbitration interval.
	Cycle time.Duration
	// Per-tenant task counts by workload kind (tenant i gets kind
	// i mod 3).
	BlastTasks, IOTasks, StreamTasks int
	// StreamInterval staggers a stream tenant's submissions.
	StreamInterval time.Duration
	// Admission bounds every tenant's waiting queue (zero value:
	// unbounded). BLAST bursts exceed typical caps, exercising the
	// overload counters the cluster-level merge aggregates.
	Admission wq.AdmissionPolicy
	Timeout   time.Duration
}

// DefaultTenantsEJConfig sizes E-J for a tenant count: C scales as
// T/5 so capacity is scarce (a few node-sized workers per tenant-
// triplet) and the allocation policy, not raw capacity, decides who
// runs when.
func DefaultTenantsEJConfig(seed int64, tenants int) TenantsEJConfig {
	c := max(8, tenants/5)
	return TenantsEJConfig{
		Seed:         seed,
		Tenants:      tenants,
		TotalWorkers: c,
		Kube: kubesim.Config{
			InitialNodes:  max(2, c/4),
			MinNodes:      1,
			MaxNodes:      c,
			ProvisionMean: 90 * time.Second,
			Seed:          seed,
		},
		Cycle:          30 * time.Second,
		BlastTasks:     18,
		IOTasks:        24,
		StreamTasks:    16,
		StreamInterval: 45 * time.Second,
		Admission:      wq.AdmissionPolicy{MaxWaiting: 12, BufferDepth: 64},
		Timeout:        12 * time.Hour,
	}
}

// SmokeTenantsEJConfig is the T=100 variant the tests and the golden
// pins run.
func SmokeTenantsEJConfig(seed int64) TenantsEJConfig {
	cfg := DefaultTenantsEJConfig(seed, 100)
	cfg.BlastTasks = 9
	cfg.IOTasks = 12
	cfg.StreamTasks = 6
	return cfg
}

// tenantLoad is one tenant's reproducible workload: specs plus submit
// offsets, built once per report so every policy cell replays the
// identical mix.
type tenantLoad struct {
	kind   string
	weight int
	specs  []wq.TaskSpec
	at     []time.Duration
}

func buildTenantLoads(cfg TenantsEJConfig) []tenantLoad {
	rng := rand.New(rand.NewSource(cfg.Seed))
	loads := make([]tenantLoad, cfg.Tenants)
	for i := range loads {
		ld := &loads[i]
		switch i % 3 {
		case 0:
			// BLAST: an undeclared burst of node-heavy tasks — the
			// monitor learns the category, the whole queue lands at
			// once (overload-counter fodder under bounded admission).
			ld.kind = "blast"
			ld.weight = 1
			for j := 0; j < cfg.BlastTasks; j++ {
				ld.specs = append(ld.specs, wq.TaskSpec{
					Category: "blast",
					Profile: wq.Profile{
						ExecDuration: time.Duration(45+rng.Intn(31)) * time.Second,
						UsedCPUMilli: 870, UsedMemoryMB: 1700,
					},
				})
				ld.at = append(ld.at, 0)
			}
		case 1:
			// I/O: many small declared tasks, ~20 per worker.
			ld.kind = "io"
			ld.weight = 1
			for j := 0; j < cfg.IOTasks; j++ {
				ld.specs = append(ld.specs, wq.TaskSpec{
					Category:  "io",
					Resources: resources.Vector{MilliCPU: 150, MemoryMB: 512},
					Profile: wq.Profile{
						ExecDuration: time.Duration(20+rng.Intn(21)) * time.Second,
						UsedCPUMilli: 150, UsedMemoryMB: 512,
					},
				})
				ld.at = append(ld.at, 0)
			}
		case 2:
			// Stream: declared long tasks trickling in — the tenant
			// whose demand digest changes every interval.
			ld.kind = "stream"
			ld.weight = 2
			for j := 0; j < cfg.StreamTasks; j++ {
				jitter := time.Duration(rng.Intn(int(cfg.StreamInterval / 4)))
				ld.specs = append(ld.specs, wq.TaskSpec{
					Category:  "stream",
					Resources: resources.Vector{MilliCPU: 870, MemoryMB: 1700},
					Profile: wq.Profile{
						ExecDuration: time.Duration(100+rng.Intn(41)) * time.Second,
						UsedCPUMilli: 870, UsedMemoryMB: 1700,
					},
				})
				ld.at = append(ld.at, time.Duration(j)*cfg.StreamInterval+jitter)
			}
		}
	}
	return loads
}

// TenantsEJRow is one policy cell of the E-J table.
type TenantsEJRow struct {
	Policy      string
	Tenants     int
	Workers     int
	Submitted   int
	Completed   int
	Shed        int
	MakespanP50 time.Duration
	MakespanP99 time.Duration
	MakespanMax time.Duration
	// Jain is the fairness index over per-tenant makespans: 1 when
	// every tenant finishes together, 1/T when one tenant's completion
	// time dwarfs the rest.
	Jain float64
	// Utilization is useful core-seconds over the C × nodeCores × span
	// capacity envelope.
	Utilization float64
	Cycles      int
	Replans     int
	Skipped     int
	PodsCreated int
	// Overload aggregates per-master admission counters with the
	// cluster-level merge semantics (metrics.ClusterOverload).
	Overload metrics.OverloadCounters
}

// ReplansPerCycle is the amortized digest work: T for the naive
// arbiter, the dirty-tenant count for the incremental one.
func (r TenantsEJRow) ReplansPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Replans) / float64(r.Cycles)
}

// TenantsEJReport is experiment E-J.
type TenantsEJReport struct {
	Rows    []TenantsEJRow
	Tenants int
	Workers int
	Seed    int64
}

// TenantsEJ runs E-J at the given tenant count.
func TenantsEJ(seed int64, tenants int) (*TenantsEJReport, error) {
	return TenantsEJWith(DefaultTenantsEJConfig(seed, tenants))
}

// TenantsEJWith runs E-J under an explicit configuration: the same
// tenant mix under weighted fair share, fair share with quota
// floors/ceilings, and the single-shared-autoscaler greedy baseline.
func TenantsEJWith(cfg TenantsEJConfig) (*TenantsEJReport, error) {
	loads := buildTenantLoads(cfg)
	rep := &TenantsEJReport{Tenants: cfg.Tenants, Workers: cfg.TotalWorkers, Seed: cfg.Seed}
	cells := []struct {
		name   string
		policy arbiter.Policy
		quota  bool
	}{
		{"fair-share", arbiter.PolicyFairShare, false},
		{"quota", arbiter.PolicyFairShare, true},
		{"shared", arbiter.PolicyGreedy, false},
	}
	for _, cell := range cells {
		row, err := runTenantsCell(cfg, loads, cell.name, cell.policy, cell.quota)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// tenantsCellHook, set only by tests, sees each E-J cell's engine and
// arbiter after the tenants are added and before arbitration starts.
var tenantsCellHook func(eng *simclock.Engine, a *arbiter.Arbiter)

func runTenantsCell(cfg TenantsEJConfig, loads []tenantLoad, name string, policy arbiter.Policy, quota bool) (TenantsEJRow, error) {
	row := TenantsEJRow{Policy: name, Tenants: cfg.Tenants, Workers: cfg.TotalWorkers}
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	eng := simclock.NewEngine(start)
	cluster := kubesim.NewCluster(eng, cfg.Kube)
	a := arbiter.New(eng, cluster, arbiter.Config{
		Cycle:        cfg.Cycle,
		TotalWorkers: cfg.TotalWorkers,
		Policy:       policy,
	})

	total := 0
	done := 0
	lastDone := make([]time.Time, cfg.Tenants)
	for i, ld := range loads {
		tc := arbiter.TenantConfig{ID: fmt.Sprintf("t%05d", i), Weight: ld.weight}
		if quota {
			// Floors for the latency-sensitive stream tenants,
			// ceilings on the bursty BLAST tenants.
			switch ld.kind {
			case "stream":
				tc.QuotaMin = 1
			case "blast":
				tc.QuotaMax = max(1, 2*cfg.TotalWorkers/cfg.Tenants)
			}
		}
		ten, err := a.AddTenant(tc)
		if err != nil {
			return row, err
		}
		ten.Master().SetAdmissionPolicy(cfg.Admission)
		i := i
		terminal := func() { done++; lastDone[i] = eng.Now() }
		ten.Master().OnComplete(func(wq.Result) { terminal() })
		ten.Master().OnTaskFailed(func(wq.Task) { terminal() })
		ten.Master().OnRejected(func(wq.Task) { terminal() })
		for j, spec := range ld.specs {
			total++
			if at := ld.at[j]; at > 0 {
				spec := spec
				eng.At(start.Add(at), "tenant-submit", func() { ten.Master().Submit(spec) })
			} else {
				ten.Master().Submit(spec)
			}
		}
	}
	if tenantsCellHook != nil {
		tenantsCellHook(eng, a)
	}
	if err := a.Start(); err != nil {
		return row, err
	}
	deadline := start.Add(cfg.Timeout)
	eng.RunWhile(func() bool { return done < total && eng.Now().Before(deadline) })
	a.Stop()
	if done != total {
		return row, fmt.Errorf("experiments: E-J %s stalled: %d/%d terminal by %v", name, done, total, eng.Now())
	}

	makespans := make([]time.Duration, cfg.Tenants)
	xs := make([]float64, cfg.Tenants)
	var span time.Duration
	var useful float64
	overload := make([]metrics.OverloadCounters, 0, cfg.Tenants)
	for i, ten := range a.Tenants() {
		m := lastDone[i].Sub(start)
		makespans[i] = m
		xs[i] = m.Seconds()
		span = max(span, m)
		fs := ten.Master().FailureStats()
		useful += fs.UsefulCoreSeconds
		row.Completed += ten.Master().CompletedCount()
		row.Shed += ten.Master().OverloadStats().Shed
		overload = append(overload, ten.Master().OverloadStats())
	}
	row.Submitted = total
	mq := metrics.DurationQuantiles(makespans, 0.50, 0.99)
	row.MakespanP50, row.MakespanP99 = mq[0], mq[1]
	row.MakespanMax = span
	row.Jain = metrics.JainIndex(xs)
	nodeCores := float64(cluster.Config().NodeAllocatable.MilliCPU) / 1000
	if env := float64(cfg.TotalWorkers) * nodeCores * span.Seconds(); env > 0 {
		row.Utilization = useful / env
	}
	row.Overload = metrics.ClusterOverload(overload)
	st := a.Stats()
	row.Cycles = st.Cycles
	row.Replans = st.Replans
	row.Skipped = st.Skipped
	row.PodsCreated = st.PodsCreated
	return row, nil
}

// String renders the E-J table.
func (r *TenantsEJReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tenants E-J — %d tenants on %d shared workers (seed %d)\n", r.Tenants, r.Workers, r.Seed)
	fmt.Fprintf(&b, "%-10s %9s %5s %10s %10s %10s %6s %6s %7s %9s %8s\n",
		"policy", "completed", "shed", "mk p50", "mk p99", "mk max", "jain", "util", "cycles", "replan/cy", "pods")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9d %5d %10s %10s %10s %6.3f %6.3f %7d %9.1f %8d\n",
			row.Policy, row.Completed, row.Shed,
			row.MakespanP50.Round(time.Second), row.MakespanP99.Round(time.Second), row.MakespanMax.Round(time.Second),
			row.Jain, row.Utilization, row.Cycles, row.ReplansPerCycle(), row.PodsCreated)
	}
	return b.String()
}
