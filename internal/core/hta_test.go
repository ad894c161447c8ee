package core

import (
	"strings"
	"testing"
	"time"

	"hta/internal/flow"
	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/workload"
	"hta/internal/wq"
)

// stack wires engine + cluster + master + HTA.
type stack struct {
	eng     *simclock.Engine
	cluster *kubesim.Cluster
	master  *wq.Master
	a       *Autoscaler
}

func newStack(t *testing.T, kcfg kubesim.Config, hcfg Config) *stack {
	t.Helper()
	eng := simclock.NewEngine(t0)
	if kcfg.Seed == 0 {
		kcfg.Seed = 1
	}
	cluster := kubesim.NewCluster(eng, kcfg)
	master := wq.NewMaster(eng, nil)
	a := New(eng, cluster, master, hcfg)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	return &stack{eng: eng, cluster: cluster, master: master, a: a}
}

// runToCompletion executes the given flat specs through HTA and
// returns the workload runtime. It fails the test on timeout.
func (s *stack) runToCompletion(t *testing.T, specs []wq.TaskSpec, timeout time.Duration) time.Duration {
	t.Helper()
	g, specFn, err := flow.FromSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	r := flow.NewRunner(g, s.a, specFn)
	finished := false
	var runtime time.Duration
	r.OnAllDone(func() {
		runtime = s.eng.Elapsed()
		s.a.Shutdown(func() { finished = true })
	})
	r.Start()
	deadline := t0.Add(timeout)
	s.eng.RunWhile(func() bool { return !finished && s.eng.Now().Before(deadline) })
	if !finished {
		t.Fatalf("workload did not finish within %v (completed %d/%d, stats %+v, pods %d)",
			timeout, s.master.CompletedCount(), len(specs), s.master.Stats(), s.a.WorkerPodCount())
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return runtime
}

func TestStartDeploysFramework(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 10}, Config{})
	s.eng.RunFor(time.Minute)
	if _, ok := s.cluster.GetPod("wq-master-0"); !ok {
		t.Error("master StatefulSet pod missing")
	}
	if _, ok := s.cluster.GetService("wq-master"); !ok {
		t.Error("master service missing")
	}
	// 3 initial worker pods connect as workers.
	if got := len(s.master.Workers()); got != 3 {
		t.Errorf("workers = %d, want 3", got)
	}
	if err := s.a.Start(); err == nil {
		t.Error("double Start should fail")
	}
}

func TestWarmupHoldsBackUnknownCategories(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 10}, Config{})
	specs := workload.UniformParams{N: 10, Category: "x", Exec: 30 * time.Second, CPUMilli: 900}.Specs()
	for _, spec := range specs {
		s.a.Submit(spec)
	}
	// Exactly one probe goes to the master; nine are held.
	if got := s.master.Stats(); got.Waiting+got.Running != 1 {
		t.Errorf("probe tasks at master = %d, want 1", got.Waiting+got.Running)
	}
	if got := s.a.HeldTasks(); got != 9 {
		t.Errorf("held = %d, want 9", got)
	}
	// After the probe completes the rest are released.
	s.eng.RunFor(3 * time.Minute)
	if got := s.a.HeldTasks(); got != 0 {
		t.Errorf("held after probe = %d, want 0", got)
	}
	if got := s.master.CompletedCount(); got < 1 {
		t.Errorf("completed = %d", got)
	}
}

func TestDeclaredTasksBypassWarmup(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 10}, Config{})
	p := workload.UniformParams{N: 5, Category: "x", Exec: 30 * time.Second,
		Resources: resources.New(1, 1024, 10), CPUMilli: 900}
	for _, spec := range p.Specs() {
		s.a.Submit(spec)
	}
	if got := s.a.HeldTasks(); got != 0 {
		t.Errorf("held = %d, want 0 for declared tasks", got)
	}
}

func TestEndToEndSmallWorkload(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 10}, Config{})
	specs := workload.UniformParams{N: 30, Category: "x", Exec: 60 * time.Second, CPUMilli: 900, Seed: 2}.Specs()
	runtime := s.runToCompletion(t, specs, 4*time.Hour)
	if runtime <= 0 {
		t.Fatal("zero runtime")
	}
	// Clean-up stage: no worker pods, no master statefulset left.
	s.eng.RunFor(time.Minute)
	if got := s.a.WorkerPodCount(); got != 0 {
		t.Errorf("worker pods after cleanup = %d", got)
	}
	if _, ok := s.cluster.GetPod("wq-master-0"); ok {
		t.Error("master pod not cleaned up")
	}
	if len(s.a.Decisions) == 0 {
		t.Error("no resize decisions recorded")
	}
}

func TestScalesUpBeyondInitialNodes(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 10}, Config{})
	// 90 one-core tasks of 5 min: strong sustained demand.
	specs := workload.UniformParams{N: 90, Category: "x", Exec: 5 * time.Minute, CPUMilli: 900, Seed: 3}.Specs()
	g, specFn, _ := flow.FromSpecs(specs)
	r := flow.NewRunner(g, s.a, specFn)
	r.Start()
	s.eng.RunFor(20 * time.Minute)
	if got := s.cluster.ReadyNodes(); got < 8 {
		t.Errorf("ready nodes = %d, want scale-up toward 10", got)
	}
	if got := s.a.WorkerPodCount(); got < 8 {
		t.Errorf("worker pods = %d, want near quota", got)
	}
}

func TestScalesDownAfterPeak(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 10, ScaleDownDelay: 2 * time.Minute}, Config{})
	specs := workload.UniformParams{N: 60, Category: "x", Exec: 2 * time.Minute, CPUMilli: 900, Seed: 4}.Specs()
	runtime := s.runToCompletion(t, specs, 6*time.Hour)
	_ = runtime
	// After cleanup + node scale-down delay, the cluster shrinks to
	// its minimum.
	s.eng.RunFor(20 * time.Minute)
	if got := s.a.WorkerPodCount(); got != 0 {
		t.Errorf("worker pods = %d after completion", got)
	}
	if got := s.cluster.ReadyNodes(); got > 3 {
		t.Errorf("nodes = %d, want scale-down after drain", got)
	}
}

func TestWorkerPodKilledTasksRequeue(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 5}, Config{})
	specs := workload.UniformParams{N: 6, Category: "x", Exec: 10 * time.Minute, CPUMilli: 900, Seed: 5}.Specs()
	g, specFn, _ := flow.FromSpecs(specs)
	r := flow.NewRunner(g, s.a, specFn)
	finished := false
	r.OnAllDone(func() { s.a.Shutdown(func() { finished = true }) })
	r.Start()
	s.eng.RunFor(5 * time.Minute)
	// Kill one active worker pod out from under HTA (simulates node
	// failure / eviction).
	var victim string
	for _, p := range s.cluster.ListPods(workerLabels) {
		if p.Phase == kubesim.PodRunning {
			victim = p.Name
			break
		}
	}
	if victim == "" {
		t.Fatal("no running worker pod to kill")
	}
	if err := s.cluster.DeletePod(victim); err != nil {
		t.Fatal(err)
	}
	deadline := t0.Add(8 * time.Hour)
	s.eng.RunWhile(func() bool { return !finished && s.eng.Now().Before(deadline) })
	if !finished {
		t.Fatalf("workload stuck after pod kill: %+v", s.master.Stats())
	}
	if got := s.master.CompletedCount(); got != 6 {
		t.Errorf("completed = %d, want 6", got)
	}
}

func TestLifecycleTrackerMeasuresColdStarts(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 10}, Config{})
	specs := workload.UniformParams{N: 60, Category: "x", Exec: 5 * time.Minute, CPUMilli: 900, Seed: 6}.Specs()
	g, specFn, _ := flow.FromSpecs(specs)
	flow.NewRunner(g, s.a, specFn).Start()
	s.eng.RunFor(15 * time.Minute)
	if !s.a.Tracker().Measured() {
		t.Fatal("no initialization-time measurement after scale-up")
	}
	got := s.a.Tracker().Latest()
	if got < 100*time.Second || got > 220*time.Second {
		t.Errorf("init time = %v, want ≈160s", got)
	}
	mean, std := s.a.Tracker().MeanStd()
	if mean < 100 || mean > 220 {
		t.Errorf("mean = %v", mean)
	}
	if std < 0 || std > 30 {
		t.Errorf("std = %v", std)
	}
}

func TestTrackerIgnoresWarmStarts(t *testing.T) {
	eng := simclock.NewEngine(t0)
	cluster := kubesim.NewCluster(eng, kubesim.Config{InitialNodes: 2, Seed: 1})
	defer cluster.Stop()
	lt := NewLifecycleTracker(cluster, nil, 99*time.Second)
	cluster.CreatePod(kubesim.PodSpec{Name: "warm", Image: "img", Resources: resources.Vector{MilliCPU: 1000}})
	eng.RunFor(time.Minute)
	if lt.Measured() {
		t.Error("warm start should not produce a measurement")
	}
	if lt.Latest() != 99*time.Second {
		t.Errorf("Latest = %v, want fallback", lt.Latest())
	}
	if mean, std := lt.MeanStd(); mean != 0 || std != 0 {
		t.Errorf("MeanStd = %v, %v", mean, std)
	}
}

func TestShutdownBeforeWorkIsImmediate(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 2, MaxNodes: 4}, Config{InitialWorkers: 2})
	s.eng.RunFor(time.Minute)
	finished := false
	s.a.Shutdown(func() { finished = true })
	s.eng.RunFor(time.Minute)
	if !finished {
		t.Fatal("shutdown never completed")
	}
	if got := s.a.WorkerPodCount(); got != 0 {
		t.Errorf("worker pods = %d", got)
	}
}

func TestMaxWorkersRespected(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 10}, Config{MaxWorkers: 4})
	specs := workload.UniformParams{N: 100, Category: "x", Exec: 5 * time.Minute, CPUMilli: 900, Seed: 7}.Specs()
	g, specFn, _ := flow.FromSpecs(specs)
	flow.NewRunner(g, s.a, specFn).Start()
	s.eng.RunFor(20 * time.Minute)
	if got := s.a.WorkerPodCount(); got > 4 {
		t.Errorf("worker pods = %d, want ≤ 4", got)
	}
}

func TestNodeFailureRecovery(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 6}, Config{})
	specs := workload.UniformParams{N: 12, Category: "x", Exec: 8 * time.Minute, CPUMilli: 900, Seed: 11}.Specs()
	g, specFn, _ := flow.FromSpecs(specs)
	r := flow.NewRunner(g, s.a, specFn)
	finished := false
	r.OnAllDone(func() { s.a.Shutdown(func() { finished = true }) })
	r.Start()
	s.eng.RunFor(5 * time.Minute)
	// Kill the node hosting a running worker pod.
	var victim string
	for _, p := range s.cluster.ListPods(workerLabels) {
		if p.Phase == kubesim.PodRunning {
			victim = p.NodeName
			break
		}
	}
	if victim == "" {
		t.Fatal("no running worker to orphan")
	}
	if err := s.cluster.PreemptNode(victim); err != nil {
		t.Fatal(err)
	}
	deadline := t0.Add(10 * time.Hour)
	s.eng.RunWhile(func() bool { return !finished && s.eng.Now().Before(deadline) })
	if !finished {
		t.Fatalf("workload stuck after node failure: %+v", s.master.Stats())
	}
	if got := s.master.CompletedCount(); got != 12 {
		t.Errorf("completed = %d, want 12", got)
	}
}

func TestStatusProgression(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 6}, Config{})
	st := s.a.Status()
	if st.Stage != "warm-up" {
		t.Errorf("initial stage = %q", st.Stage)
	}
	specs := workload.UniformParams{N: 10, Category: "x", Exec: time.Minute, CPUMilli: 900, Seed: 12}.Specs()
	g, specFn, _ := flow.FromSpecs(specs)
	r := flow.NewRunner(g, s.a, specFn)
	finished := false
	r.OnAllDone(func() { s.a.Shutdown(func() { finished = true }) })
	r.Start()
	s.eng.RunFor(2 * time.Minute)
	st = s.a.Status()
	if st.Stage != "runtime" {
		t.Errorf("mid-run stage = %q", st.Stage)
	}
	if st.WorkersActive == 0 || st.Decisions == 0 {
		t.Errorf("status = %+v", st)
	}
	if len(st.KnownCategories) != 1 || st.KnownCategories[0] != "x" {
		t.Errorf("categories = %v", st.KnownCategories)
	}
	deadline := t0.Add(8 * time.Hour)
	s.eng.RunWhile(func() bool { return !finished && s.eng.Now().Before(deadline) })
	if !finished {
		t.Fatal("never finished")
	}
	st = s.a.Status()
	if st.Stage != "done" {
		t.Errorf("final stage = %q", st.Stage)
	}
	if st.Completed != 10 {
		t.Errorf("completed = %d", st.Completed)
	}
	if got := st.String(); !strings.Contains(got, "[done]") {
		t.Errorf("String() = %q", got)
	}
}
