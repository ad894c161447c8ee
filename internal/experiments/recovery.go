package experiments

// Experiment E-G: control-plane crash recovery. The multistage BLAST
// workflow runs on the full HTA stack while a seeded Poisson process
// kills one control-plane component — the makeflow engine, the wq
// master, or the autoscaling operator — a fixed number of times
// mid-run, restarting it from its durable state after a short
// downtime. The report measures what the crash-consistency machinery
// costs and saves: makespan overhead versus the no-crash baseline,
// goodput, rescued versus requeued attempts, journal replays, and
// reconcile corrections. The accounting invariant (submitted =
// completed + quarantined) must hold in every cell, and a fixed seed
// reproduces the table byte for byte.

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"hta/internal/chaos"
	"hta/internal/core"
	"hta/internal/flow"
	"hta/internal/makeflow"
	"hta/internal/metrics"
	"hta/internal/wq"
)

// RecoveryEGConfig parameterizes E-G; tests shrink the workload.
type RecoveryEGConfig struct {
	Seed int64
	// Stages overrides the multistage task counts (zero = paper-sized
	// 200/34/164).
	Stages [3]int
	// Retry is the master's recovery policy.
	Retry wq.RetryPolicy
	// KillCounts are the swept mid-run restart counts per component.
	KillCounts []int
	// Downtime is how long a killed component stays down before its
	// restart (default 15 s simulated).
	Downtime time.Duration
	// RescueWindow is how long a restored master waits for workers to
	// reattach before requeueing their running tasks (default 30 s).
	RescueWindow time.Duration
	// Timeout bounds each simulated run.
	Timeout time.Duration
}

// DefaultRecoveryEGConfig is the full-size experiment: paper-sized
// multistage BLAST, one and three mid-run restarts per component.
func DefaultRecoveryEGConfig(seed int64) RecoveryEGConfig {
	return RecoveryEGConfig{
		Seed:       seed,
		KillCounts: []int{1, 3},
		Retry: wq.RetryPolicy{
			MaxAttempts:         8,
			BackoffBase:         5 * time.Second,
			BackoffMax:          60 * time.Second,
			FastAbortMultiplier: 3,
		},
	}
}

func (c RecoveryEGConfig) withDefaults() RecoveryEGConfig {
	if len(c.KillCounts) == 0 {
		c.KillCounts = []int{1, 3}
	}
	if c.Downtime == 0 {
		c.Downtime = 15 * time.Second
	}
	if c.RescueWindow == 0 {
		c.RescueWindow = 30 * time.Second
	}
	if c.Timeout == 0 {
		c.Timeout = fig10Timeout
	}
	return c
}

// RecoveryRow is one (component, kill count) outcome.
type RecoveryRow struct {
	Component   string // "none" = no-crash baseline
	Planned     int    // kills the plan asked for
	Kills       int    // kills actually delivered
	Runtime     time.Duration
	OverheadPct float64 // makespan overhead vs the baseline
	Rescued     int     // running tasks re-adopted from reattaching workers
	Fenced      int     // stale attempts rejected by the generation fence
	Requeued    int     // rescue-window expiries (retried without budget charge)
	Replayed    int     // journal records applied by makeflow restarts
	Skipped     int     // DAG rules recovery completed without re-running
	Corrections int     // reconcile fixes by restarted operator / master-restore
	Requeues    int     // all re-dispatches (includes worker faults)
	Quarantined int
	Submitted   int
	Completed   int
	Goodput     float64
}

// RecoveryEGReport is the E-G result table.
type RecoveryEGReport struct {
	Baseline time.Duration
	Rows     []RecoveryRow
	Runs     map[string]*RunResult
}

var recoveryComponents = []chaos.Component{
	chaos.ComponentMakeflow, chaos.ComponentMaster, chaos.ComponentOperator,
}

// RecoveryEG runs the full-size experiment.
func RecoveryEG(seed int64) (*RecoveryEGReport, error) {
	return RecoveryEGWith(DefaultRecoveryEGConfig(seed))
}

// RecoveryEGWith runs E-G under an explicit configuration: first the
// no-crash baseline (serial — its runtime calibrates every kill
// schedule), then all (component × kill count) cells concurrently.
func RecoveryEGWith(cfg RecoveryEGConfig) (*RecoveryEGReport, error) {
	cfg = cfg.withDefaults()
	baseline, err := recoveryCell("recovery-baseline", cfg, -1, 0, 0)
	if err != nil {
		return nil, err
	}
	rep := &RecoveryEGReport{
		Baseline: baseline.Runtime,
		Runs:     map[string]*RunResult{baseline.Name: baseline},
	}
	rep.Rows = append(rep.Rows, recoveryRowFrom("none", 0, baseline, baseline.Runtime))

	type cell struct {
		comp  chaos.Component
		kills int
	}
	var cells []cell
	for _, comp := range recoveryComponents {
		for _, n := range cfg.KillCounts {
			cells = append(cells, cell{comp, n})
		}
	}
	results := make([]*RunResult, len(cells))
	err = Parallel(len(cells), func(i int) error {
		c := cells[i]
		// Spread the planned kills across the expected run: with mean
		// baseline/(2·(n+1)), all n kills land comfortably mid-workload
		// in expectation rather than piling up at the start or never
		// firing.
		mean := baseline.Runtime / time.Duration(2*(c.kills+1))
		name := fmt.Sprintf("recovery-%s-x%d", c.comp, c.kills)
		var err error
		results[i], err = recoveryCell(name, cfg, c.comp, c.kills, mean)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		res := results[i]
		rep.Runs[res.Name] = res
		rep.Rows = append(rep.Rows, recoveryRowFrom(c.comp.String(), c.kills, res, baseline.Runtime))
	}
	return rep, nil
}

func recoveryRowFrom(comp string, planned int, res *RunResult, baseline time.Duration) RecoveryRow {
	overhead := 0.0
	if baseline > 0 {
		overhead = (res.Runtime.Seconds() - baseline.Seconds()) / baseline.Seconds() * 100
	}
	return RecoveryRow{
		Component:   comp,
		Planned:     planned,
		Kills:       res.Chaos.MakeflowKills + res.Chaos.MasterKills + res.Chaos.OperatorKills,
		Runtime:     res.Runtime,
		OverheadPct: overhead,
		Rescued:     res.Recovery.RescuedTasks,
		Fenced:      res.Recovery.FencedAttempts,
		Requeued:    res.Recovery.RequeuedUnrescued,
		Replayed:    res.Recovery.ReplayedRecords,
		Skipped:     res.Recovery.SkippedRules,
		Corrections: res.Recovery.ReconcileCorrections,
		Requeues:    res.Failures.Requeues,
		Quarantined: res.Failures.Quarantined,
		Submitted:   res.Submitted,
		Completed:   res.Completed,
		Goodput:     res.Failures.Goodput(),
	}
}

// controlPlaneHarness is one E-G cell's arrival driver: the multistage
// workflow as a bag with a transaction journal. It implements
// chaos.ControlPlane: each delivered kill crashes the selected
// component and schedules its restart from durable state after the
// configured downtime. All methods run on the simulation goroutine.
type controlPlaneHarness struct {
	bag
	r            *run
	hta          *htaScaler
	sink         *makeflow.MemorySink
	build        func() (Workload, error) // deterministic graph rebuild
	downtime     time.Duration
	rescueWindow time.Duration

	rec          metrics.RecoveryCounters
	makeflowDown bool
}

func (h *controlPlaneHarness) start(r *run) {
	h.r = r
	h.bag.start(r)
}

func (h *controlPlaneHarness) report(res *RunResult) error {
	if err := h.bag.report(res); err != nil {
		return err
	}
	res.Recovery.Add(h.rec)
	return nil
}

// CrashComponent delivers one kill. A kill is refused (not counted,
// the injector re-arms) when the workload already finished or the
// component is still down from a previous kill.
func (h *controlPlaneHarness) CrashComponent(c chaos.Component) bool {
	if h.r.ended || h.r.failed != nil {
		return false
	}
	master, auto := h.r.master, h.hta.a
	switch c {
	case chaos.ComponentMaster:
		if master.Down() {
			return false
		}
		snap, reattaches := master.Crash()
		h.rec.MasterRestarts++
		h.r.eng.After(h.downtime, "recover-master", func() {
			master.Restore(snap, h.rescueWindow)
			// The worker fleet survived the master: every worker
			// reconnects, reporting its in-flight attempt for rescue.
			for _, w := range reattaches {
				if err := master.AttachWorker(w); err != nil {
					h.fail(err)
					return
				}
			}
			h.rec.ReconcileCorrections += auto.OnMasterRestored()
		})
		return true
	case chaos.ComponentOperator:
		if auto.Down() {
			return false
		}
		st := auto.Crash()
		h.rec.OperatorRestarts++
		h.r.eng.After(h.downtime, "recover-operator", func() {
			h.rec.ReconcileCorrections += auto.Restore(st)
		})
		return true
	case chaos.ComponentMakeflow:
		if h.makeflowDown {
			return false
		}
		h.makeflowDown = true
		h.runner.Detach()
		h.rec.MakeflowRestarts++
		h.r.eng.After(h.downtime, "recover-makeflow", func() {
			h.restartMakeflow()
		})
		return true
	}
	return false
}

// restartMakeflow is the workflow engine's restart path: rebuild the
// graph from the (deterministic) workflow description, replay the
// transaction log to reconstruct progress, fold in the master's own
// completion record for tasks that finished during the downtime, and
// start a fresh runner on the same scheduler and journal.
func (h *controlPlaneHarness) restartMakeflow() {
	wl, err := h.build()
	if err != nil {
		h.fail(err)
		return
	}
	rep, err := makeflow.ReplayLog(bytes.NewReader(h.sink.Bytes()))
	if err != nil {
		h.fail(err)
		return
	}
	rr, err := flow.Recover(wl.Graph, rep, h.r.master.CompletedTags(), h.r.master.QuarantinedTags())
	if err != nil {
		h.fail(err)
		return
	}
	h.rec.ReplayedRecords += rr.ReplayedRecords
	h.rec.SkippedRules += rr.CompletedRules
	h.wl = wl
	h.makeflowDown = false
	h.bag.start(h.r) // keeps appending to the same journal
}

func (h *controlPlaneHarness) fail(err error) {
	h.r.fail(fmt.Errorf("experiments: recovery harness: %w", err))
}

// recoveryCell runs one E-G simulation. comp < 0 is the no-crash
// baseline.
func recoveryCell(name string, cfg RecoveryEGConfig, comp chaos.Component, kills int, mean time.Duration) (*RunResult, error) {
	build := func() (Workload, error) { return multistage(cfg.Seed, cfg.Stages, false) }
	wl, err := build()
	if err != nil {
		return nil, err
	}

	sc := &htaScaler{cfg: core.Config{MaxWorkers: 20}}
	sink := makeflow.NewMemorySink()
	h := &controlPlaneHarness{
		bag: bag{wl: wl, log: sink}, hta: sc, sink: sink, build: build,
		downtime: cfg.Downtime, rescueWindow: cfg.RescueWindow,
	}
	st := fig10Stack(cfg.Seed)
	st.retry, st.timeout = cfg.Retry, cfg.Timeout
	if comp >= 0 && kills > 0 {
		plan := chaos.Plan{Seed: cfg.Seed}
		kp := chaos.ControlPlaneKillPlan{MeanInterval: mean, MaxKills: kills}
		switch comp {
		case chaos.ComponentMakeflow:
			plan.ControlPlane.Makeflow = kp
		case chaos.ComponentMaster:
			plan.ControlPlane.Master = kp
		case chaos.ComponentOperator:
			plan.ControlPlane.Operator = kp
		}
		st.chaos, st.controlPlane = &plan, h
	}
	return simulate(name, st, sc, h)
}

// String renders the E-G table; with a fixed seed the output is
// byte-identical across runs.
func (r *RecoveryEGReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-G — control-plane crash recovery (baseline %0.fs)\n", r.Baseline.Seconds())
	fmt.Fprintf(&b, "%-10s %5s %9s %9s %7s %6s %8s %8s %7s %8s %8s %4s %10s %8s\n",
		"Component", "Kills", "Runtime", "Overhead", "Rescued", "Fenced", "Requeued",
		"Replayed", "Skipped", "Reconc", "Requeues", "Quar", "Done", "Goodput")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %2d/%-2d %8.0fs %8.1f%% %7d %6d %8d %8d %7d %8d %8d %4d %5d/%-4d %8.3f\n",
			row.Component, row.Kills, row.Planned, row.Runtime.Seconds(), row.OverheadPct,
			row.Rescued, row.Fenced, row.Requeued, row.Replayed, row.Skipped, row.Corrections,
			row.Requeues, row.Quarantined, row.Completed, row.Submitted, row.Goodput)
	}
	return b.String()
}
