package flow

import (
	"fmt"
	"testing"
	"time"

	"hta/internal/dag"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func spec(d time.Duration) wq.TaskSpec {
	return wq.TaskSpec{
		Resources: resources.New(1, 1024, 10),
		Profile:   wq.Profile{ExecDuration: d, UsedCPUMilli: 900},
	}
}

func TestRunnerExecutesDiamond(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	m.AddWorker("w1", resources.New(3, 12288, 1000))

	g := dag.NewGraph()
	g.Add(dag.Node{ID: "a", Outputs: []string{"a.out"}})
	g.Add(dag.Node{ID: "b", Inputs: []string{"a.out"}, Outputs: []string{"b.out"}})
	g.Add(dag.Node{ID: "c", Inputs: []string{"a.out"}, Outputs: []string{"c.out"}})
	g.Add(dag.Node{ID: "d", Inputs: []string{"b.out", "c.out"}})
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}

	r := NewRunner(g, m, func(n dag.Node) wq.TaskSpec { return spec(10 * time.Second) })
	doneAt := time.Duration(0)
	r.OnAllDone(func() { doneAt = eng.Elapsed() })
	r.Start()
	eng.Run()
	if !r.Done() {
		t.Fatal("runner not done")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	// a (10s) → b,c parallel (10s) → d (10s) = 30s.
	if doneAt != 30*time.Second {
		t.Errorf("done at %v, want 30s", doneAt)
	}
	if m.CompletedCount() != 4 {
		t.Errorf("completed = %d", m.CompletedCount())
	}
}

func TestRunnerSetsTagToNodeID(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	g := dag.NewGraph()
	g.Add(dag.Node{ID: "only"})
	g.Finalize()
	var gotTag string
	m.OnComplete(func(r wq.Result) { gotTag = r.Task.Tag })
	r := NewRunner(g, m, func(n dag.Node) wq.TaskSpec {
		s := spec(time.Second)
		s.Tag = "should-be-overwritten"
		return s
	})
	r.Start()
	eng.Run()
	if gotTag != "only" {
		t.Errorf("tag = %q, want node ID", gotTag)
	}
}

func TestRunnerIgnoresForeignCompletions(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	g := dag.NewGraph()
	g.Add(dag.Node{ID: "mine"})
	g.Finalize()
	r := NewRunner(g, m, func(n dag.Node) wq.TaskSpec { return spec(5 * time.Second) })
	r.Start()
	// A foreign task (submitted outside the runner) completes first.
	foreign := spec(time.Second)
	foreign.Tag = "foreign"
	m.Submit(foreign)
	eng.Run()
	if !r.Done() || r.Err() != nil {
		t.Fatalf("done=%v err=%v", r.Done(), r.Err())
	}
}

func TestFromSpecs(t *testing.T) {
	specs := []wq.TaskSpec{spec(time.Second), spec(2 * time.Second), spec(3 * time.Second)}
	specs[1].Category = "special"
	g, fn, err := FromSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := len(g.Ready()); got != 3 {
		t.Errorf("ready = %d, want all (no deps)", got)
	}
	n, _ := g.Node("task1")
	if n.Category != "special" {
		t.Errorf("category = %q", n.Category)
	}
	if got := fn(n); got.Profile.ExecDuration != 2*time.Second {
		t.Errorf("spec mapping wrong: %v", got.Profile.ExecDuration)
	}
}

func TestFromSpecsRunsFlat(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	g, fn, _ := FromSpecs([]wq.TaskSpec{spec(10 * time.Second), spec(10 * time.Second), spec(10 * time.Second)})
	r := NewRunner(g, m, fn)
	r.Start()
	eng.Run()
	if !r.Done() {
		t.Fatal("not done")
	}
	if eng.Elapsed() != 10*time.Second {
		t.Errorf("elapsed = %v, want 10s (3 parallel)", eng.Elapsed())
	}
}

func TestLocalNodesRunAtManager(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	g := dag.NewGraph()
	g.Add(dag.Node{ID: "gen", Outputs: []string{"a"}})
	g.Add(dag.Node{ID: "rename", Local: true, Inputs: []string{"a"}, Outputs: []string{"b"}})
	g.Add(dag.Node{ID: "use", Inputs: []string{"b"}})
	g.Finalize()
	submitted := make(map[string]bool)
	r := NewRunner(g, m, func(n dag.Node) wq.TaskSpec {
		submitted[n.ID] = true
		return spec(10 * time.Second)
	})
	done := false
	r.OnAllDone(func() { done = true })
	r.Start()
	eng.Run()
	if !done || r.Err() != nil {
		t.Fatalf("done=%v err=%v", done, r.Err())
	}
	if submitted["rename"] {
		t.Error("LOCAL node was submitted to the scheduler")
	}
	if m.CompletedCount() != 2 {
		t.Errorf("scheduler completed %d, want 2 (gen, use)", m.CompletedCount())
	}
	// gen (10s) → rename (instant) → use (10s).
	if eng.Elapsed() != 20*time.Second {
		t.Errorf("elapsed = %v, want 20s", eng.Elapsed())
	}
}

func TestAllLocalWorkflowCompletesWithoutWorkers(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil) // no workers at all
	g := dag.NewGraph()
	g.Add(dag.Node{ID: "a", Local: true, Outputs: []string{"a.out"}})
	g.Add(dag.Node{ID: "b", Local: true, Inputs: []string{"a.out"}})
	g.Finalize()
	r := NewRunner(g, m, func(n dag.Node) wq.TaskSpec { return spec(time.Second) })
	done := false
	r.OnAllDone(func() { done = true })
	r.Start()
	eng.Run()
	if !done {
		t.Fatal("all-local workflow did not complete")
	}
	if eng.Elapsed() != 0 {
		t.Errorf("elapsed = %v, want instant", eng.Elapsed())
	}
}

func TestChaosQuarantineFailsNode(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	// One failure quarantines: MaxAttempts = 1.
	m.SetRetryPolicy(wq.RetryPolicy{MaxAttempts: 1})
	m.AddWorker("w1", resources.New(1, 4096, 100))
	m.AddWorker("w2", resources.New(1, 4096, 100))

	// a and b independent; c depends on a.
	g := dag.NewGraph()
	g.Add(dag.Node{ID: "a", Outputs: []string{"a.out"}})
	g.Add(dag.Node{ID: "b"})
	g.Add(dag.Node{ID: "c", Inputs: []string{"a.out"}})
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	durs := map[string]time.Duration{"a": time.Hour, "b": 30 * time.Second, "c": time.Second}
	r := NewRunner(g, m, func(n dag.Node) wq.TaskSpec { return spec(durs[n.ID]) })
	done := false
	r.OnAllDone(func() { done = true })
	r.Start()

	// Kill whichever worker runs node a mid-flight; the task
	// quarantines immediately and the node fails.
	eng.RunUntil(t0.Add(time.Second))
	var victim string
	for _, tk := range m.RunningTasks() {
		if tk.Tag == "a" {
			victim = tk.WorkerID
		}
	}
	if victim == "" {
		t.Fatal("node a not running")
	}
	if err := m.KillWorker(victim); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if !done || !r.Done() {
		t.Fatalf("runner did not finish after failure + drain (done=%v)", done)
	}
	if r.Err() == nil {
		t.Fatal("Err() = nil, want node-failure error")
	}
	if g.State("a") != dag.Failed {
		t.Errorf("a = %v, want Failed", g.State("a"))
	}
	if g.State("b") != dag.Complete {
		t.Errorf("b = %v, want Complete (in-flight work drains)", g.State("b"))
	}
	if g.State("c") == dag.Running || g.State("c") == dag.Complete {
		t.Errorf("c = %v, want never started", g.State("c"))
	}
}

// chain builds a graph of n nodes, each consuming its predecessor's
// output, with IDs prefix0, prefix1, ...
func chain(t testing.TB, prefix string, n int) *dag.Graph {
	g := dag.NewGraph()
	for i := 0; i < n; i++ {
		node := dag.Node{ID: fmt.Sprintf("%s%d", prefix, i), Outputs: []string{fmt.Sprintf("%s%d.out", prefix, i)}}
		if i > 0 {
			node.Inputs = []string{fmt.Sprintf("%s%d.out", prefix, i-1)}
		}
		if err := g.Add(node); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunnersSharingMasterCollidingRefs runs two workflows on one
// master. Their nodes share indices, so their tasks carry the same
// Refs; each runner must claim only its own completions.
func TestRunnersSharingMasterCollidingRefs(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	mk := func(d time.Duration) SpecFunc { return func(dag.Node) wq.TaskSpec { return spec(d) } }
	ga, gb := chain(t, "a", 5), chain(t, "b", 5)
	ra, rb := NewRunner(ga, m, mk(10*time.Second)), NewRunner(gb, m, mk(3*time.Second))
	claimed := map[string]int32{}
	m.OnComplete(func(r wq.Result) { claimed[r.Task.Tag] = r.Task.Ref })
	var doneA, doneB time.Duration
	ra.OnAllDone(func() { doneA = eng.Elapsed() })
	rb.OnAllDone(func() { doneB = eng.Elapsed() })
	ra.Start()
	rb.Start()
	eng.Run()
	// Each chain advances on its own completions only: five 10 s and
	// five 3 s steps side by side on the worker.
	if doneA != 50*time.Second || doneB != 15*time.Second {
		t.Fatalf("workflows done at %v and %v, want 50s and 15s", doneA, doneB)
	}
	for _, r := range []*Runner{ra, rb} {
		if !r.Done() || r.Err() != nil {
			t.Fatalf("done=%v err=%v", r.Done(), r.Err())
		}
	}
	if ga.Completed() != 5 || gb.Completed() != 5 || m.CompletedCount() != 10 {
		t.Fatalf("completed a=%d b=%d master=%d, want 5/5/10", ga.Completed(), gb.Completed(), m.CompletedCount())
	}
	for i := 0; i < 5; i++ {
		if claimed[fmt.Sprintf("a%d", i)] != int32(i+1) || claimed[fmt.Sprintf("b%d", i)] != int32(i+1) {
			t.Fatalf("refs %v, want node index + 1 in both workflows", claimed)
		}
	}
}

// stubSched records the last submitted spec and delivers completions
// by hand, as the wire adapter does.
type stubSched struct {
	last     wq.TaskSpec
	complete func(wq.Result)
}

func (s *stubSched) Submit(spec wq.TaskSpec) int   { s.last = spec; return 0 }
func (s *stubSched) OnComplete(fn func(wq.Result)) { s.complete = fn }

func (s *stubSched) finish(spec wq.TaskSpec) {
	s.complete(wq.Result{Task: wq.Task{TaskSpec: spec, State: wq.TaskComplete}})
}

// TestRunnerResolvesByTagWithoutRef delivers completions with no Ref
// (the wire path, a restored master) and with a Ref that names another
// node: both must resolve by tag. A foreign tag whose Ref matches one
// of the runner's nodes must not be claimed.
func TestRunnerResolvesByTagWithoutRef(t *testing.T) {
	g := chain(t, "n", 3)
	s := &stubSched{}
	r := NewRunner(g, s, func(dag.Node) wq.TaskSpec { return spec(time.Second) })
	r.Start()

	foreign := s.last
	foreign.Tag = "elsewhere"
	s.finish(foreign) // Ref 1 is n0's, the tag is not
	if g.State("n0") != dag.Running {
		t.Fatalf("n0 = %v after a foreign completion, want running", g.State("n0"))
	}

	noRef := s.last
	noRef.Ref = 0
	s.finish(noRef)
	if g.State("n0") != dag.Complete || s.last.Tag != "n1" {
		t.Fatalf("n0 = %v, next submitted %q after a Ref-less completion", g.State("n0"), s.last.Tag)
	}
	wrongRef := s.last
	wrongRef.Ref = 3 // n2's index + 1
	s.finish(wrongRef)
	if g.State("n1") != dag.Complete || g.State("n2") != dag.Running {
		t.Fatalf("n1 = %v, n2 = %v after a mismatched Ref, want complete/running", g.State("n1"), g.State("n2"))
	}
	s.finish(s.last)
	if !r.Done() || r.Err() != nil {
		t.Fatalf("done=%v err=%v", r.Done(), r.Err())
	}
}

// TestRunnerCompleteAllocs pins one completion — resolve the node,
// complete it, release and submit its dependent — at zero allocations.
func TestRunnerCompleteAllocs(t *testing.T) {
	g := chain(t, "n", 200)
	s := &stubSched{}
	task := spec(time.Second)
	NewRunner(g, s, func(dag.Node) wq.TaskSpec { return task }).Start()
	avg := testing.AllocsPerRun(100, func() { s.finish(s.last) })
	if avg != 0 {
		t.Fatalf("a runner completion allocates %v objects, want 0", avg)
	}
	if g.Completed() != 101 {
		t.Fatalf("completed %d, want 101", g.Completed())
	}
}
