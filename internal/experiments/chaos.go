package experiments

// Experiment E-F: the multistage BLAST workflow on preemptible nodes.
// A seed-driven chaos injector reclaims nodes at several Poisson rates
// while HTA, the HPA baseline and the queue-proportional scaler run
// the same workflow under the same retry policy. The report shows what
// the paper's evaluation never measures: how much completed work each
// autoscaler loses to preemption (re-executed core·s, goodput), how
// the recovery machinery behaves (requeues, fast-aborts, quarantines),
// and what the faults cost in runtime.

import (
	"fmt"
	"strings"
	"time"

	"hta/internal/chaos"
	"hta/internal/core"
	"hta/internal/hpa"
	"hta/internal/wq"
)

// ChaosEFConfig parameterizes E-F; tests shrink the workload.
type ChaosEFConfig struct {
	Seed int64
	// PreemptMeans are the swept mean inter-preemption intervals; a 0
	// entry is the fault-free baseline.
	PreemptMeans []time.Duration
	// Stages overrides the multistage task counts (zero = paper-sized
	// 200/34/164).
	Stages [3]int
	// Retry is the masters' recovery policy.
	Retry wq.RetryPolicy
}

// DefaultChaosEFConfig is the full-size experiment: paper-sized
// multistage BLAST, baseline plus two preemption rates, a retry
// budget generous enough that no task quarantines.
func DefaultChaosEFConfig(seed int64) ChaosEFConfig {
	return ChaosEFConfig{
		Seed:         seed,
		PreemptMeans: []time.Duration{0, 10 * time.Minute, 4 * time.Minute},
		Retry: wq.RetryPolicy{
			MaxAttempts:         8,
			BackoffBase:         5 * time.Second,
			BackoffMax:          60 * time.Second,
			FastAbortMultiplier: 3,
		},
	}
}

// ChaosRow is one (autoscaler, preemption rate) outcome.
type ChaosRow struct {
	Autoscaler  string
	PreemptMean time.Duration // 0 = fault-free baseline
	Runtime     time.Duration
	Preemptions int
	WorkerKills int
	Requeues    int
	FastAborts  int
	Quarantined int
	Submitted   int
	Completed   int
	LostCoreSec float64
	Goodput     float64
}

// ChaosEFReport is the E-F result table.
type ChaosEFReport struct {
	Rows []ChaosRow
	Runs map[string]*RunResult
}

var chaosScalers = []string{"HTA", "HPA(20% CPU)", "QPA(queue/3)"}

// ChaosEF runs the full-size experiment.
func ChaosEF(seed int64) (*ChaosEFReport, error) {
	return ChaosEFWith(DefaultChaosEFConfig(seed))
}

// ChaosEFWith runs E-F under an explicit configuration. At each
// preemption rate the three scalers run concurrently on one stack
// configuration; each is its own deterministic simulation.
func ChaosEFWith(cfg ChaosEFConfig) (*ChaosEFReport, error) {
	if len(cfg.PreemptMeans) == 0 {
		cfg.PreemptMeans = DefaultChaosEFConfig(cfg.Seed).PreemptMeans
	}
	rep := &ChaosEFReport{Runs: make(map[string]*RunResult)}
	for _, mean := range cfg.PreemptMeans {
		st := fig10Stack(cfg.Seed)
		st.retry = cfg.Retry
		if mean > 0 {
			st.chaos = &chaos.Plan{
				Seed: cfg.Seed,
				Preemption: chaos.PreemptionPlan{
					MeanInterval: mean,
					// Spare an on-demand floor of one node, like a mixed
					// spot/on-demand pool.
					MinNodesSpared: 1,
				},
			}
		}
		at := "@" + preemptLabel(mean)
		runs, err := compare(st, []entrant{
			{chaosScalers[0] + at, &htaScaler{cfg: core.Config{MaxWorkers: 20}}},
			{chaosScalers[1] + at, fig10HPA(hpa.Config{TargetCPUUtilization: 0.20})},
			{chaosScalers[2] + at, fig10QPA()},
		}, multistageBags(cfg.Seed, cfg.Stages))
		if err != nil {
			return nil, err
		}
		for i, res := range runs {
			rep.Runs[res.Name] = res
			rep.Rows = append(rep.Rows, ChaosRow{
				Autoscaler:  chaosScalers[i],
				PreemptMean: mean,
				Runtime:     res.Runtime,
				Preemptions: res.Chaos.Preemptions,
				WorkerKills: res.Failures.WorkerKills,
				Requeues:    res.Failures.Requeues,
				FastAborts:  res.Failures.FastAborts,
				Quarantined: res.Failures.Quarantined,
				Submitted:   res.Submitted,
				Completed:   res.Completed,
				LostCoreSec: res.Failures.LostCoreSeconds,
				Goodput:     res.Failures.Goodput(),
			})
		}
	}
	return rep, nil
}

func preemptLabel(d time.Duration) string {
	if d == 0 {
		return "none"
	}
	return d.String()
}

// String renders the E-F table; with a fixed seed the output is
// byte-identical across runs (the determinism contract of the chaos
// subsystem).
func (r *ChaosEFReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-F — multistage BLAST on preemptible nodes (retry + fast-abort recovery)\n")
	fmt.Fprintf(&b, "%-14s %-8s %9s %8s %6s %9s %7s %5s %10s %12s %8s\n",
		"Autoscaler", "Preempt", "Runtime", "Reclaims", "Kills", "Requeues", "Aborts", "Quar", "Done", "Lost core-s", "Goodput")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %-8s %8.0fs %8d %6d %9d %7d %5d %5d/%-4d %12.0f %8.3f\n",
			row.Autoscaler, preemptLabel(row.PreemptMean), row.Runtime.Seconds(),
			row.Preemptions, row.WorkerKills, row.Requeues, row.FastAborts,
			row.Quarantined, row.Completed, row.Submitted, row.LostCoreSec, row.Goodput)
	}
	return b.String()
}
