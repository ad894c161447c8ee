package flow

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"hta/internal/dag"
	"hta/internal/makeflow"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// diamond builds the a→(b,c)→d test graph.
func diamond(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.NewGraph()
	g.Add(dag.Node{ID: "a", Outputs: []string{"a.out"}})
	g.Add(dag.Node{ID: "b", Inputs: []string{"a.out"}, Outputs: []string{"b.out"}})
	g.Add(dag.Node{ID: "c", Inputs: []string{"a.out"}, Outputs: []string{"c.out"}})
	g.Add(dag.Node{ID: "d", Inputs: []string{"b.out", "c.out"}})
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRecoverSkipsCompletedMarksInFlight(t *testing.T) {
	g := diamond(t)
	rep, err := makeflow.ReplayLog(strings.NewReader("submit a\ndone a\nsubmit b\nsubmit c\ndone c\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(g, rep, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedRules != 2 || res.InFlightRules != 1 {
		t.Fatalf("recover = %+v", res)
	}
	if g.State("a") != dag.Complete || g.State("c") != dag.Complete {
		t.Fatal("completed rules not skipped")
	}
	if g.State("b") != dag.Running {
		t.Fatalf("in-flight rule state = %v", g.State("b"))
	}
	if g.State("d") != dag.Pending {
		t.Fatalf("blocked child state = %v", g.State("d"))
	}
}

// TestRecoverExtraDoneCoversDowntimeCompletions folds the master's
// completion record into recovery: a task that finished while the
// engine was down is completed, not stalled on.
func TestRecoverExtraDoneCoversDowntimeCompletions(t *testing.T) {
	g := diamond(t)
	rep, err := makeflow.ReplayLog(strings.NewReader("submit a\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(g, rep, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedRules != 1 {
		t.Fatalf("recover = %+v", res)
	}
	if g.State("a") != dag.Complete {
		t.Fatal("master-known completion not applied")
	}
	if got := len(g.Ready()); got != 2 {
		t.Fatalf("ready frontier = %d, want b and c", got)
	}
}

// TestRecoverTornParentLeavesChildPending: a child's submit record
// survived but the parent's done record was torn off — the child must
// stay Pending (it will resubmit when the parent completes) rather
// than corrupt the graph.
func TestRecoverTornParentLeavesChildPending(t *testing.T) {
	g := diamond(t)
	rep, err := makeflow.ReplayLog(strings.NewReader("submit a\nsubmit b\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(g, rep, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.InFlightRules != 1 {
		t.Fatalf("recover = %+v", res)
	}
	if g.State("a") != dag.Running || g.State("b") != dag.Pending {
		t.Fatalf("states a=%v b=%v", g.State("a"), g.State("b"))
	}
}

// TestRecoverFailedRuleFailsRestartedRun: a rule journalled as
// permanently failed fails the restarted workflow instead of being
// silently retried or stalling it.
func TestRecoverFailedRuleFailsRestartedRun(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	g := diamond(t)
	rep, err := makeflow.ReplayLog(strings.NewReader("submit a\ndone a\nsubmit b\nfail b\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(g, rep, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRules != 1 {
		t.Fatalf("recover = %+v", res)
	}
	r := NewRunner(g, m, func(n dag.Node) wq.TaskSpec { return spec(time.Second) })
	fired := false
	r.OnAllDone(func() { fired = true })
	r.Start()
	eng.Run()
	if r.Err() == nil {
		t.Fatal("restarted run over a failed rule reported no error")
	}
	if !fired {
		t.Fatal("restarted run never finished")
	}
}

// TestRunnerJournalAndRestart runs the diamond halfway, crashes the
// engine (detach + rebuild from the journal), and finishes on the
// same master: every node completes exactly once and the journal's
// final state shows all four rules done.
func TestRunnerJournalAndRestart(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	sink := makeflow.NewMemorySink()

	g1 := diamond(t)
	specFn := func(n dag.Node) wq.TaskSpec { return spec(10 * time.Second) }
	r1 := NewRunner(g1, m, specFn)
	r1.SetLog(sink)
	r1.Start()
	// Run past a's completion: b and c are submitted and running.
	eng.RunFor(15 * time.Second)
	if m.CompletedCount() != 1 {
		t.Fatalf("setup: completed = %d", m.CompletedCount())
	}

	// Engine crash: the old incarnation's subscriptions go quiet, a new
	// graph is rebuilt and recovered from the journal.
	r1.Detach()
	g2 := diamond(t)
	rep, err := makeflow.ReplayLog(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The master's completion record, Recover's extraDone input.
	done := m.CompletedTags()
	if !slices.Equal(done, []string{"a"}) {
		t.Fatalf("CompletedTags = %q, want [a]", done)
	}
	res, err := Recover(g2, rep, done, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedRules != 1 || res.InFlightRules != 2 {
		t.Fatalf("recover = %+v", res)
	}
	r2 := NewRunner(g2, m, specFn)
	r2.SetLog(sink)
	finished := false
	r2.OnAllDone(func() { finished = true })
	r2.Start()
	eng.Run()
	if !finished || r2.Err() != nil {
		t.Fatalf("restarted run: finished=%v err=%v", finished, r2.Err())
	}
	// No node ran twice: 4 submissions total across both incarnations.
	if m.SubmittedCount() != 4 || m.CompletedCount() != 4 {
		t.Fatalf("submitted=%d completed=%d, want 4/4", m.SubmittedCount(), m.CompletedCount())
	}
	final, err := makeflow.ReplayLog(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Done) != 4 || len(final.InFlight) != 0 {
		t.Fatalf("final journal: %+v", final)
	}
}
