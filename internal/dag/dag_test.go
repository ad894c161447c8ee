package dag

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hta/internal/resources"
)

// diamond builds a 4-node diamond: a -> (b, c) -> d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	add := func(n Node) {
		if err := g.Add(n); err != nil {
			t.Fatalf("Add(%s): %v", n.ID, err)
		}
	}
	add(Node{ID: "a", Outputs: []string{"a.out"}})
	add(Node{ID: "b", Inputs: []string{"a.out"}, Outputs: []string{"b.out"}})
	add(Node{ID: "c", Inputs: []string{"a.out"}, Outputs: []string{"c.out"}})
	add(Node{ID: "d", Inputs: []string{"b.out", "c.out"}, Outputs: []string{"d.out"}})
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

func TestDiamondStructure(t *testing.T) {
	g := diamond(t)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if deps := g.Dependencies("d"); len(deps) != 2 {
		t.Errorf("deps(d) = %v", deps)
	}
	if deps := g.Dependencies("a"); len(deps) != 0 {
		t.Errorf("deps(a) = %v", deps)
	}
	if dd := g.Dependents("a"); len(dd) != 2 {
		t.Errorf("dependents(a) = %v", dd)
	}
}

func TestReadyProgression(t *testing.T) {
	g := diamond(t)
	if got := g.Ready(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("initial Ready = %v", got)
	}
	if err := g.Start("a"); err != nil {
		t.Fatal(err)
	}
	if got := g.Ready(); got != nil {
		t.Fatalf("Ready while a running = %v", got)
	}
	newly, err := g.Complete("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(newly, []string{"b", "c"}) {
		t.Fatalf("newly ready = %v", newly)
	}
	for _, id := range []string{"b", "c"} {
		if err := g.Start(id); err != nil {
			t.Fatal(err)
		}
	}
	if newly, _ := g.Complete("b"); newly != nil {
		t.Fatalf("d ready too early: %v", newly)
	}
	newly, _ = g.Complete("c")
	if !reflect.DeepEqual(newly, []string{"d"}) {
		t.Fatalf("after c, newly = %v", newly)
	}
	if g.Done() {
		t.Fatal("Done before d")
	}
	g.Start("d")
	g.Complete("d")
	if !g.Done() {
		t.Fatal("not Done after all complete")
	}
	if g.Completed() != 4 {
		t.Fatalf("Completed = %d", g.Completed())
	}
}

func TestInvalidTransitions(t *testing.T) {
	g := diamond(t)
	if err := g.Start("d"); err == nil {
		t.Error("Start of pending node should fail")
	}
	if _, err := g.Complete("a"); err == nil {
		t.Error("Complete of ready node should fail")
	}
	if err := g.Start("nope"); err == nil {
		t.Error("Start of unknown node should fail")
	}
	g.Start("a")
	if err := g.Start("a"); err == nil {
		t.Error("double Start should fail")
	}
}

func TestFailRetry(t *testing.T) {
	g := diamond(t)
	g.Start("a")
	if err := g.Fail("a"); err != nil {
		t.Fatal(err)
	}
	if g.State("a") != Failed {
		t.Fatalf("state = %v", g.State("a"))
	}
	if err := g.Retry("a"); err != nil {
		t.Fatal(err)
	}
	if g.State("a") != Ready {
		t.Fatalf("state after retry = %v", g.State("a"))
	}
	g.Start("a")
	if g.Attempts("a") != 2 {
		t.Fatalf("attempts = %d", g.Attempts("a"))
	}
	if _, err := g.Complete("a"); err != nil {
		t.Fatal(err)
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph()
	g.Add(Node{ID: "x", Inputs: []string{"y.out"}, Outputs: []string{"x.out"}})
	g.Add(Node{ID: "y", Inputs: []string{"x.out"}, Outputs: []string{"y.out"}})
	err := g.Finalize()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Finalize err = %v, want cycle error", err)
	}
}

func TestSelfInputIgnored(t *testing.T) {
	// A node both reading and writing the same file must not
	// create a self-edge.
	g := NewGraph()
	g.Add(Node{ID: "x", Inputs: []string{"x.out"}, Outputs: []string{"x.out"}})
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if len(g.Dependencies("x")) != 0 {
		t.Errorf("self-dependency created: %v", g.Dependencies("x"))
	}
}

func TestAddErrors(t *testing.T) {
	g := NewGraph()
	if err := g.Add(Node{ID: ""}); err == nil {
		t.Error("empty ID should fail")
	}
	g.Add(Node{ID: "a", Outputs: []string{"f"}})
	if err := g.Add(Node{ID: "a"}); err == nil {
		t.Error("duplicate ID should fail")
	}
	if err := g.Add(Node{ID: "b", Outputs: []string{"f"}}); err == nil {
		t.Error("duplicate output producer should fail")
	}
	g.Finalize()
	if err := g.Add(Node{ID: "c"}); err == nil {
		t.Error("Add after Finalize should fail")
	}
	if err := g.Finalize(); err == nil {
		t.Error("double Finalize should fail")
	}
}

// TestRejectedAddRestoresGraph holds Add's one-assignment insert to
// its contract: a rejected Add leaves the graph as it found it, with
// the map entry it overwrote put back, and the next Add of a fresh ID
// succeeds.
func TestRejectedAddRestoresGraph(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  Node
	}{
		{"duplicate ID", Node{ID: "b", Outputs: []string{"new"}}},
		{"output produced by another node", Node{ID: "c", Outputs: []string{"new", "g", "new2"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph()
			if err := g.Add(Node{ID: "a", Outputs: []string{"f"}}); err != nil {
				t.Fatal(err)
			}
			if err := g.Add(Node{ID: "b", Inputs: []string{"f"}, Outputs: []string{"g"}}); err != nil {
				t.Fatal(err)
			}
			producer := maps.Clone(g.producer)
			if err := g.Add(tc.bad); err == nil {
				t.Fatalf("Add(%+v) succeeded", tc.bad)
			}
			if g.Len() != 2 || len(g.index) != 2 {
				t.Errorf("Len = %d, index has %d IDs; want 2 and 2", g.Len(), len(g.index))
			}
			for id, want := range map[string]int32{"a": 0, "b": 1} {
				if i, ok := g.Index(id); !ok || i != want {
					t.Errorf("Index(%q) = %d, %v; want %d", id, i, ok, want)
				}
			}
			if _, ok := g.Index("c"); ok {
				t.Error("the rejected node c is indexed")
			}
			if s := g.State("b"); s != Pending {
				t.Errorf("State(b) = %v, want pending", s)
			}
			if !maps.Equal(g.producer, producer) {
				t.Errorf("producer map = %v, want %v", g.producer, producer)
			}
			if err := g.Add(Node{ID: "c", Inputs: []string{"g"}, Outputs: []string{"new"}}); err != nil {
				t.Fatalf("fresh Add after the rejection: %v", err)
			}
			if i, _ := g.Index("c"); i != 2 {
				t.Errorf("Index(c) = %d, want 2", i)
			}
			if err := g.Finalize(); err != nil {
				t.Fatal(err)
			}
			if got := g.Dependencies("b"); !slices.Equal(got, []string{"a"}) {
				t.Errorf("Dependencies(b) = %v, want [a]", got)
			}
			if got := g.Dependencies("c"); !slices.Equal(got, []string{"b"}) {
				t.Errorf("Dependencies(c) = %v, want [b]", got)
			}
		})
	}
}

// TestAddOutputsTwiceInOneNode keeps what the model accepts: one node
// naming the same output twice produces it, once.
func TestAddOutputsTwiceInOneNode(t *testing.T) {
	g := NewGraph()
	if err := g.Add(Node{ID: "a", Outputs: []string{"f", "f"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(Node{ID: "b", Inputs: []string{"f"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(Node{ID: "c", Outputs: []string{"f"}}); err == nil {
		t.Error("a second producer of f was accepted")
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := g.Dependencies("b"); !slices.Equal(got, []string{"a"}) {
		t.Errorf("Dependencies(b) = %v, want [a]", got)
	}
}

// TestBagMakesNoProducerMap: nodes without outputs never need the
// output → producer map, so a bag of independent tasks never makes it.
func TestBagMakesNoProducerMap(t *testing.T) {
	g := NewGraph()
	g.Grow(100)
	for i := range 100 {
		if err := g.Add(Node{ID: fmt.Sprint("t", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if g.producer != nil {
		t.Error("a bag made a producer map")
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Ready()); got != 100 {
		t.Errorf("ready = %d, want 100", got)
	}
}

func TestSourceFiles(t *testing.T) {
	g := NewGraph()
	g.Add(Node{ID: "a", Inputs: []string{"genome.db", "query.1"}, Outputs: []string{"out.1"}})
	g.Add(Node{ID: "b", Inputs: []string{"genome.db", "out.1"}, Outputs: []string{"out.2"}})
	g.Finalize()
	want := []string{"genome.db", "query.1"}
	if got := g.SourceFiles(); !reflect.DeepEqual(got, want) {
		t.Errorf("SourceFiles = %v, want %v", got, want)
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	levels := g.Levels()
	if len(levels) != 3 {
		t.Fatalf("levels = %v", levels)
	}
	if !reflect.DeepEqual(levels[0], []string{"a"}) ||
		!reflect.DeepEqual(levels[1], []string{"b", "c"}) ||
		!reflect.DeepEqual(levels[2], []string{"d"}) {
		t.Errorf("levels = %v", levels)
	}
}

func TestCategories(t *testing.T) {
	g := NewGraph()
	g.Add(Node{ID: "s1", Category: "split"})
	g.Add(Node{ID: "a1", Category: "align"})
	g.Add(Node{ID: "a2", Category: "align"})
	g.Finalize()
	if got := g.CategoryCounts(); got["align"] != 2 || got["split"] != 1 {
		t.Errorf("CategoryCounts = %v", got)
	}
	if got := g.Categories(); !reflect.DeepEqual(got, []string{"split", "align"}) {
		t.Errorf("Categories = %v", got)
	}
}

func TestReset(t *testing.T) {
	g := diamond(t)
	g.Start("a")
	g.Complete("a")
	g.Reset()
	if got := g.Ready(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("Ready after Reset = %v", got)
	}
	if g.Completed() != 0 || g.Attempts("a") != 0 {
		t.Error("Reset did not clear progress")
	}
	// Graph must be runnable again to completion.
	for !g.Done() {
		ready := g.Ready()
		if len(ready) == 0 {
			t.Fatal("stuck after Reset")
		}
		for _, id := range ready {
			g.Start(id)
			g.Complete(id)
		}
	}
}

func TestCounts(t *testing.T) {
	g := diamond(t)
	g.Start("a")
	c := g.Counts()
	if c[Running] != 1 || c[Pending] != 3 {
		t.Errorf("Counts = %v", c)
	}
}

func TestNodeCopySemantics(t *testing.T) {
	g := NewGraph()
	in := []string{"x"}
	n := Node{ID: "a", Inputs: in, Resources: resources.New(1, 2, 3)}
	g.Add(n)
	in[0] = "mutated"
	got, ok := g.Node("a")
	if !ok || got.Inputs[0] != "x" {
		t.Error("Add must copy slices")
	}
	if got.Resources != resources.New(1, 2, 3) {
		t.Errorf("Resources = %v", got.Resources)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Pending: "pending", Ready: "ready", Running: "running",
		Complete: "complete", Failed: "failed", State(99): "state(99)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s, want)
		}
	}
}

// randomLayeredGraph builds a random layered DAG: nodes in layer k
// consume outputs of random nodes in layer k-1.
func randomLayeredGraph(r *rand.Rand, layers, width int) *Graph {
	g := NewGraph()
	for l := 0; l < layers; l++ {
		n := 1 + r.Intn(width)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("n%d_%d", l, i)
			node := Node{ID: id, Outputs: []string{id + ".out"}, Category: fmt.Sprintf("stage%d", l)}
			if l > 0 {
				// Depend on 1..3 nodes of the previous layer.
				prevWidth := 0
				for {
					if _, ok := g.Node(fmt.Sprintf("n%d_%d", l-1, prevWidth)); !ok {
						break
					}
					prevWidth++
				}
				k := 1 + r.Intn(3)
				for j := 0; j < k; j++ {
					dep := fmt.Sprintf("n%d_%d.out", l-1, r.Intn(prevWidth))
					node.Inputs = append(node.Inputs, dep)
				}
			}
			g.Add(node)
		}
	}
	if err := g.Finalize(); err != nil {
		panic(err)
	}
	return g
}

// Property: executing any random layered DAG by repeatedly draining
// the ready frontier always terminates with all nodes complete, and
// no node ever starts before its dependencies completed.
func TestPropertyExecutionTerminates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomLayeredGraph(r, 2+r.Intn(4), 6)
		completed := make(map[string]bool)
		steps := 0
		for !g.Done() {
			ready := g.Ready()
			if len(ready) == 0 {
				return false // deadlock
			}
			for _, id := range ready {
				for _, dep := range g.Dependencies(id) {
					if !completed[dep] {
						return false
					}
				}
				if err := g.Start(id); err != nil {
					return false
				}
				if _, err := g.Complete(id); err != nil {
					return false
				}
				completed[id] = true
			}
			steps++
			if steps > g.Len()+1 {
				return false
			}
		}
		return g.Completed() == g.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
