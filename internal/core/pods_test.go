package core

import (
	"testing"
	"time"

	"hta/internal/flow"
	"hta/internal/kubesim"
	"hta/internal/simclock"
	"hta/internal/workload"
	"hta/internal/wq"
)

// checkPodCounts fails the test unless the autoscaler's per-state pod
// counters equal a walk of its pod map.
func checkPodCounts(t *testing.T, a *Autoscaler, where string) {
	t.Helper()
	var creating, active, draining int
	for _, st := range a.pods {
		switch st {
		case podCreating:
			creating++
		case podActive:
			active++
		case podDraining:
			draining++
		}
	}
	if creating != a.creating || active != a.active || draining != a.draining {
		t.Fatalf("%s: counters creating/active/draining = %d/%d/%d, map walk %d/%d/%d",
			where, a.creating, a.active, a.draining, creating, active, draining)
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
	s.a.createWorkerPod()
	checkPodCounts(t, s.a, "after create")
	for name, st := range s.a.pods {
		if st == podCreating {
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
	if n := s.a.creating + s.a.active + s.a.draining; n != 0 {
		t.Errorf("%d pods still counted after clean-up", n)
	}
	if preempted == 0 || cancelled == 0 || drained == 0 {
		t.Errorf("churn missed a transition: %d preempted, %d cancelled, %d drained", preempted, cancelled, drained)
	}
	t.Logf("%d worker-pod events checked: %d preempted, %d cancelled, %d drained", events, preempted, cancelled, drained)
}

// TestWorkerPodLifecycleAllocs pins the allocation cost of one
// steady-state HTA worker pod on a warm node (image cached, no
// provisioning, a resident worker keeping the fleet non-empty), driven
// through the autoscaler's own glue: create → Started → AddWorker →
// drain → Succeeded → Deleted. What is left is the pod's name and
// record, the container-start event, the usage reporter and the drain
// callback.
func TestWorkerPodLifecycleAllocs(t *testing.T) {
	eng := simclock.NewEngine(t0)
	cluster := kubesim.NewCluster(eng, kubesim.Config{InitialNodes: 2, Seed: 1})
	t.Cleanup(cluster.Stop)
	master := wq.NewMaster(eng, nil)
	a := New(eng, cluster, master, Config{})
	// The resident and the first cycling pod pull the image.
	a.createWorkerPod()
	a.createWorkerPod()
	eng.RunFor(30 * time.Second)
	if a.active != 2 {
		t.Fatalf("%d active workers after warm-up, want 2", a.active)
	}
	cycling := "wq-worker-2"
	lifecycle := func() {
		a.drainPod(cycling)
		eng.RunFor(time.Second)
		if len(a.pods) != 1 {
			t.Fatalf("%s still managed after its drain", cycling)
		}
		a.createWorkerPod()
		for name, st := range a.pods {
			if st == podCreating {
				cycling = name
			}
		}
		eng.RunFor(3 * time.Second) // bind, then start the container
		if a.active != 2 {
			t.Fatalf("%s did not become an active worker", cycling)
		}
	}
	// Grow the master's and the cluster's amortized tables.
	for range 64 {
		lifecycle()
	}
	allocs := testing.AllocsPerRun(100, lifecycle)
	t.Logf("%.0f allocations per worker-pod lifecycle", allocs)
	if allocs > 5 {
		t.Errorf("one worker-pod lifecycle allocates %.0f times, want at most 5", allocs)
	}
}
