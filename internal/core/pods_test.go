package core

import (
	"testing"
	"time"

	"hta/internal/bind"
	"hta/internal/flow"
	"hta/internal/kubesim"
	"hta/internal/simclock"
	"hta/internal/workload"
	"hta/internal/wq"
)

// checkPodCounts fails the test unless the autoscaler's per-state pod
// counters equal a walk of its pod book.
func checkPodCounts(t *testing.T, a *Autoscaler, where string) {
	t.Helper()
	var walk [3]int
	for _, name := range a.pods.Sorted() {
		st, _ := a.pods.State(name)
		walk[st]++
	}
	counted := [3]int{a.pods.Count(bind.PodCreating), a.pods.Count(bind.PodActive), a.pods.Count(bind.PodDraining)}
	if walk != counted {
		t.Fatalf("%s: counters creating/active/draining = %v, map walk %v", where, counted, walk)
	}
}

// TestPodCountsTrackMap churns HTA's worker pods through every state
// transition — scale-up, a node preemption under a running worker, a
// create cancelled before the pod starts, a controller crash and
// restore, graceful drains and the clean-up stage — and after every
// worker-pod watch event compares the per-state counters against a
// walk of the pod map.
func TestPodCountsTrackMap(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 6}, Config{})
	var preempted, cancelled, drained, events int
	s.cluster.OnPod(func(ev kubesim.PodWatchEvent) {
		if !ev.Pod.MatchesSelector(workerLabels) {
			return
		}
		events++
		switch {
		case ev.Type == kubesim.Deleted && ev.Reason == kubesim.ReasonKilling && !ev.Pod.RunningAt.IsZero():
			preempted++
		case ev.Type == kubesim.Deleted && ev.Pod.NodeName == "":
			cancelled++
		case ev.Reason == kubesim.ReasonCompleted:
			drained++
		}
		checkPodCounts(t, s.a, string(ev.Type)+" "+ev.Reason+" "+ev.Pod.Name)
	})

	specs := workload.UniformParams{N: 24, Category: "x", Exec: 8 * time.Minute, CPUMilli: 900, Seed: 11}.Specs()
	g, specFn, err := flow.FromSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	r := flow.NewRunner(g, s.a, specFn)
	finished := false
	r.OnAllDone(func() { s.a.Shutdown(func() { finished = true }) })
	r.Start()
	s.eng.RunFor(5 * time.Minute)

	// Preempt the node under a running worker.
	var victim string
	for _, p := range s.cluster.ListPods(workerLabels) {
		if p.Phase == kubesim.PodRunning {
			victim = p.NodeName
			break
		}
	}
	if victim == "" {
		t.Fatal("no running worker pod to preempt")
	}
	if err := s.cluster.PreemptNode(victim); err != nil {
		t.Fatal(err)
	}
	checkPodCounts(t, s.a, "after preemption")

	// Create a pod and cancel it before it is even scheduled.
	s.a.pods.Create()
	checkPodCounts(t, s.a, "after create")
	for _, name := range s.a.pods.Sorted() {
		if st, _ := s.a.pods.State(name); st == bind.PodCreating {
			s.a.drainPod(name)
		}
	}
	checkPodCounts(t, s.a, "after cancel")

	// A controller crash forgets every pod; the restore re-derives
	// them from the cluster.
	st := s.a.Crash()
	checkPodCounts(t, s.a, "after crash")
	s.eng.RunFor(time.Minute)
	s.a.Restore(st)
	checkPodCounts(t, s.a, "after restore")

	deadline := t0.Add(10 * time.Hour)
	s.eng.RunWhile(func() bool { return !finished && s.eng.Now().Before(deadline) })
	if !finished {
		t.Fatalf("workload did not finish: %+v", s.master.Stats())
	}
	checkPodCounts(t, s.a, "after clean-up")
	if n := s.a.pods.Len(); n != 0 {
		t.Errorf("%d pods still counted after clean-up", n)
	}
	if preempted == 0 || cancelled == 0 || drained == 0 {
		t.Errorf("churn missed a transition: %d preempted, %d cancelled, %d drained", preempted, cancelled, drained)
	}
	t.Logf("%d worker-pod events checked: %d preempted, %d cancelled, %d drained", events, preempted, cancelled, drained)
}

// TestWorkerPodLifecycleAllocs pins one steady-state HTA worker pod
// on a warm node (image cached, no provisioning, a resident worker
// keeping the fleet non-empty), driven through the autoscaler's own
// glue — create → Started → AddWorker → drain → Succeeded → Deleted —
// at zero allocations, amortized: the pod's name and record come from
// shared chunks, the drain callback is bound once, the container-start
// and drained events carry their pod and worker as arguments, and the
// master is the usage source of every pod.
func TestWorkerPodLifecycleAllocs(t *testing.T) {
	eng := simclock.NewEngine(t0)
	cluster := kubesim.NewCluster(eng, kubesim.Config{InitialNodes: 2, Seed: 1})
	t.Cleanup(cluster.Stop)
	master := wq.NewMaster(eng, nil)
	a := New(eng, cluster, master, Config{})
	// The resident and the first cycling pod pull the image.
	a.pods.Create()
	a.pods.Create()
	eng.RunFor(30 * time.Second)
	if active := a.pods.Count(bind.PodActive); active != 2 {
		t.Fatalf("%d active workers after warm-up, want 2", active)
	}
	cycling := "wq-worker-2"
	lifecycle := func() {
		a.drainPod(cycling)
		eng.RunFor(time.Second)
		if a.pods.Len() != 1 {
			t.Fatalf("%s still managed after its drain", cycling)
		}
		a.pods.Create()
		cycling = a.pods.SelectDrain(1)[0] // the one creating pod
		eng.RunFor(3 * time.Second)        // bind, then start the container
		if a.pods.Count(bind.PodActive) != 2 {
			t.Fatalf("%s did not become an active worker", cycling)
		}
	}
	// Grow the master's and the cluster's amortized tables.
	for range 64 {
		lifecycle()
	}
	allocs := testing.AllocsPerRun(100, lifecycle)
	t.Logf("%.0f allocations per worker-pod lifecycle", allocs)
	if allocs != 0 {
		t.Errorf("one worker-pod lifecycle allocates %.0f times, want 0", allocs)
	}
}
