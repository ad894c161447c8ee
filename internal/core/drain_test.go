package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hta/internal/flow"
	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/workload"
)

// refDrainIdle is drainIdle before the idle list: a sort of every
// managed pod name, then a walk of the master's whole roster probing
// WorkerBusy per worker. It is the oracle drainIdle must match.
func refDrainIdle(a *Autoscaler, n int) {
	names := make([]string, 0, len(a.pods))
	for name := range a.pods {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if n == 0 {
			return
		}
		if a.pods[name] == podCreating {
			a.drainPod(name)
			n--
		}
	}
	for _, id := range a.master.Workers() {
		if n == 0 {
			return
		}
		if a.pods[id] != podActive || a.master.WorkerBusy(id) {
			continue
		}
		a.drainPod(id)
		n--
	}
}

// drainCase is one randomized pod and worker state: a seeded HTA run
// stopped at a random instant, with a few extra pods still being
// created on top.
type drainCase struct {
	nodes, maxNodes, tasks, extraPods, n int
	exec                                 time.Duration
	stopAt                               time.Duration
	seed                                 int64
}

func randomDrainCase(rng *rand.Rand) drainCase {
	c := drainCase{
		nodes:     1 + rng.Intn(5),
		tasks:     1 + rng.Intn(60),
		extraPods: rng.Intn(4),
		exec:      time.Duration(30+rng.Intn(1200)) * time.Second,
		stopAt:    time.Duration(1+rng.Intn(60)) * time.Minute,
		seed:      rng.Int63n(1000) + 1,
	}
	c.maxNodes = c.nodes + rng.Intn(15)
	c.n = 1 + rng.Intn(12)
	return c
}

// run builds the case's stack, drains with the given function and
// returns the pods it let go of, in the order the drains reached the
// cluster, plus the managed pods and connected workers left behind.
func (c drainCase) run(t *testing.T, drain func(a *Autoscaler, n int)) (order []string, pods map[string]workerPodState, workers []string) {
	s := newStack(t, kubesim.Config{InitialNodes: c.nodes, MaxNodes: c.maxNodes, Seed: c.seed}, Config{})
	specs := workload.UniformParams{N: c.tasks, Category: "x", Exec: c.exec, Jitter: 0.5, CPUMilli: 900, Seed: c.seed}.Specs()
	g, specFn, err := flow.FromSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	flow.NewRunner(g, s.a, specFn).Start()
	s.eng.RunFor(c.stopAt)
	for i := 0; i < c.extraPods; i++ {
		s.a.createWorkerPod()
	}
	// A creating pod drained is deleted at once; an idle worker drained
	// completes its pod in a zero-delay callback, in drain order.
	s.cluster.OnPod(func(ev kubesim.PodWatchEvent) {
		switch {
		case ev.Type == kubesim.Deleted && ev.Pod.RunningAt.IsZero():
			order = append(order, "creating "+ev.Pod.Name)
		case ev.Reason == kubesim.ReasonCompleted:
			order = append(order, "idle "+ev.Pod.Name)
		}
	})
	drain(s.a, c.n)
	s.eng.RunFor(0)
	checkPodCounts(t, s.a, "after drain")
	return order, s.a.pods, s.master.Workers()
}

// TestDrainIdleMatchesOracle runs drainIdle and the sort-and-scan
// oracle on identical randomized stacks and requires the same pods
// drained in the same order, and the same state left behind.
func TestDrainIdleMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var creatingDrained, idleDrained int
	for i := 0; i < 60; i++ {
		c := randomDrainCase(rng)
		want, wantPods, wantWorkers := c.run(t, refDrainIdle)
		got, gotPods, gotWorkers := c.run(t, (*Autoscaler).drainIdle)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d %+v: drained %v, oracle %v", i, c, got, want)
		}
		if len(gotPods) != len(wantPods) {
			t.Fatalf("case %d: %d managed pods left, oracle %d", i, len(gotPods), len(wantPods))
		}
		for name, st := range wantPods {
			if gotPods[name] != st {
				t.Fatalf("case %d: pod %s state %d, oracle %d", i, name, gotPods[name], st)
			}
		}
		if !slices.Equal(gotWorkers, wantWorkers) {
			t.Fatalf("case %d: workers %v, oracle %v", i, gotWorkers, wantWorkers)
		}
		for _, ev := range want {
			if strings.HasPrefix(ev, "idle ") {
				idleDrained++
			} else {
				creatingDrained++
			}
		}
	}
	// The cases must reach both loops, or the oracle proves nothing.
	if creatingDrained == 0 || idleDrained == 0 {
		t.Fatalf("drained %d creating pods and %d idle workers over all cases; want both", creatingDrained, idleDrained)
	}
}

// TestDrainIdleAllocs pins a scale-down that finds nothing to drain —
// no pod still being created, every worker busy, the common case of a
// cycle that would shrink a loaded fleet — at zero allocations.
func TestDrainIdleAllocs(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 8, MaxNodes: 8}, Config{})
	p := workload.UniformParams{N: 400, Category: "x", Exec: 10 * time.Hour,
		Resources: resources.New(1, 1024, 10), CPUMilli: 900}
	for _, spec := range p.Specs() {
		s.a.Submit(spec)
	}
	s.eng.RunFor(30 * time.Minute)
	if s.a.creating != 0 || s.a.active != 8 || len(s.master.AppendIdleWorkers(nil)) != 0 {
		t.Fatalf("creating=%d active=%d idle=%v, want 0/8/none", s.a.creating, s.a.active, s.master.AppendIdleWorkers(nil))
	}
	avg := testing.AllocsPerRun(100, func() { s.a.drainIdle(4) })
	if avg != 0 {
		t.Fatalf("drainIdle allocates %v objects per call, want 0", avg)
	}
	if s.a.active != 8 {
		t.Fatalf("active = %d after draining nothing, want 8", s.a.active)
	}
}
