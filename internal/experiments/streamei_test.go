package experiments

import (
	"fmt"
	"testing"
	"time"

	"hta/internal/chaos"
	"hta/internal/core"
	"hta/internal/kubesim"
	"hta/internal/workload"
)

// TestStreamEISmoke runs the compressed E-I twice and pins the
// acceptance properties: determinism under seed, the open-system
// accounting invariant (checked inside StreamEIWith), the admission
// cap bounding every cell's peak queue depth, and the panic cell
// beating plain HTA's sojourn tail without out-thrashing HPA.
func TestStreamEISmoke(t *testing.T) {
	cfg := SmokeStreamEIConfig(5)
	rep, err := StreamEIWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := StreamEIWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.Rows) != fmt.Sprint(again.Rows) {
		t.Fatalf("E-I not deterministic under seed:\n%v\n%v", rep.Rows, again.Rows)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}

	rows := make(map[string]StreamEIRow, len(rep.Rows))
	for _, row := range rep.Rows {
		rows[row.Autoscaler] = row
	}
	hpaRow, hta, panicRow := rows["HPA"], rows["HTA"], rows["HTA-panic"]

	for name, run := range rep.Runs {
		if run.Overload.PeakWaiting > cfg.Admission.MaxWaiting {
			t.Errorf("%s peak waiting %d exceeds admission cap %d",
				name, run.Overload.PeakWaiting, cfg.Admission.MaxWaiting)
		}
	}
	if panicRow.Panics == 0 {
		t.Error("panic cell fired no panics on the spike trace")
	}
	if panicRow.P99 >= hta.P99 {
		t.Errorf("HTA-panic p99 %v not below plain HTA %v", panicRow.P99, hta.P99)
	}
	if panicRow.Actions > hpaRow.Actions {
		t.Errorf("HTA-panic actions %d exceed HPA's %d", panicRow.Actions, hpaRow.Actions)
	}
	if hta.Shed == 0 && panicRow.Shed == 0 && hpaRow.Shed == 0 {
		t.Error("no cell shed anything: the spike never hit the admission cap")
	}
	if got := rep.String(); len(got) == 0 {
		t.Error("empty report")
	}
}

// TestStreamEIPanicP99AcrossSeeds states E-I's latency claim over
// seeds 1-5 instead of at the smoke seed alone: the panic policy's p99
// sojourn is never above plain HTA's, and strictly below on at least
// four of the five. A seed where the spike leaves one panic no room to
// help ties — at seed 4 both cells read the same p99 and shed count.
func TestStreamEIPanicP99AcrossSeeds(t *testing.T) {
	below := 0
	for seed := int64(1); seed <= 5; seed++ {
		rep, err := StreamEIWith(SmokeStreamEIConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[string]StreamEIRow, len(rep.Rows))
		for _, row := range rep.Rows {
			rows[row.Autoscaler] = row
		}
		hta, panicRow := rows["HTA"], rows["HTA-panic"]
		if panicRow.P99 > hta.P99 {
			t.Errorf("seed %d: HTA-panic p99 %v above plain HTA %v", seed, panicRow.P99, hta.P99)
		}
		if panicRow.P99 < hta.P99 {
			below++
		}
	}
	if below < 4 {
		t.Errorf("HTA-panic p99 strictly below plain HTA on %d of 5 seeds, want at least 4", below)
	}
}

// TestHTAStreamHonoursStackOptions: a timed stream runs on the same
// stack as a bag, so the options the bag path takes reach it too — a
// worker-crash plan delivers crashes without breaking the open-system
// books, and a 30 s sampler period records about a sixth of the
// default 5 s period's samples.
func TestHTAStreamHonoursStackOptions(t *testing.T) {
	cfg := SmokeStreamEIConfig(3)
	tasks := cfg.Trace.Tasks()
	opt := HTAOptions{
		Kube:      cfg.Kube,
		HTA:       core.Config{MaxWorkers: cfg.MaxWorkers, DefaultCycle: cfg.Cycle},
		Admission: cfg.Admission,
		Timeout:   cfg.Timeout,
	}
	run := func(name string, opt HTAOptions) *RunResult {
		res, err := RunHTAStream(name, tasks, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	base := run("base", opt)

	crashing := opt
	crashing.Chaos = &chaos.Plan{Seed: 3, WorkerCrash: chaos.WorkerCrashPlan{MeanInterval: 5 * time.Minute}}
	crashing.Retry = DefaultChaosEFConfig(3).Retry
	res := run("crashing", crashing)
	if res.Chaos.WorkerCrashes == 0 {
		t.Error("worker-crash plan delivered no crashes on the stream path")
	}
	if got := res.Completed + res.Failures.Quarantined + res.Shed; got != res.Submitted {
		t.Errorf("submitted %d != completed %d + quarantined %d + shed %d",
			res.Submitted, res.Completed, res.Failures.Quarantined, res.Shed)
	}

	sparse := opt
	sparse.SampleEvery = 30 * time.Second
	ratio := float64(run("sparse", sparse).Workers.Len()) / float64(base.Workers.Len())
	if ratio < 0.15 || ratio > 0.18 {
		t.Errorf("30 s sampling kept %.3f of the 5 s samples, want about 1/6", ratio)
	}
}

// workflowStreamCase is a half-hour trickle of ten-task workflows on a
// ten-node quota.
func workflowStreamCase(seed int64) ([]workload.TimedWorkflow, HTAOptions) {
	p := workload.WorkflowStreamParams{
		Stream: workload.StreamParams{
			Window:     30 * time.Minute,
			BasePerMin: 0.5,
			Category:   "wf",
			Exec:       90 * time.Second,
			Jitter:     0.1,
			CPUMilli:   870,
			MemMB:      1024,
			Seed:       seed,
		},
		TasksPerWorkflow: 10,
		SizeJitter:       0.2,
	}
	return p.Workflows(), HTAOptions{
		Kube:    kubesim.Config{InitialNodes: 2, MinNodes: 1, MaxNodes: 10, Seed: seed},
		HTA:     core.Config{MaxWorkers: 10},
		Timeout: 6 * time.Hour,
	}
}

// TestWorkflowStreamDriver: whole DAGs arriving over time at one
// long-lived master all run to completion, deterministically.
func TestWorkflowStreamDriver(t *testing.T) {
	wfs, opt := workflowStreamCase(11)
	if len(wfs) == 0 {
		t.Fatal("no workflows generated")
	}
	total := 0
	for _, wf := range wfs {
		total += len(wf.Tasks)
	}
	run := func() *RunResult {
		res, err := RunHTAWorkflowStream("wf-stream", wfs, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Completed != total || res.Submitted != total {
		t.Fatalf("completed %d / submitted %d, want %d (all workflow tasks)", res.Completed, res.Submitted, total)
	}
	if res.Shed != 0 {
		t.Fatalf("workflow driver shed %d tasks without an admission policy", res.Shed)
	}
	if again := run(); again.Runtime != res.Runtime || again.Completed != res.Completed {
		t.Fatalf("workflow stream not deterministic: %v/%d vs %v/%d",
			res.Runtime, res.Completed, again.Runtime, again.Completed)
	}
}

// BenchmarkStreamEI runs the compressed open-system E-I — three
// autoscaler cells over the two-hour spike trace — per iteration, the
// wall-clock guard for the streaming stack.
func BenchmarkStreamEI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := StreamEIWith(SmokeStreamEIConfig(5))
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 3 {
			b.Fatalf("rows = %d, want 3", len(rep.Rows))
		}
	}
}
