// Package dag models a high-throughput workload as a directed acyclic
// graph of tasks connected by file dependencies, the representation a
// workflow manager such as Makeflow builds from a workload
// description. The graph tracks runtime state (pending → ready →
// running → complete) and surfaces the ready frontier that the
// workflow manager dispatches to the job scheduler.
//
// Each node has an int32 index, its position in insertion order; the
// *Idx methods work on indices, the rest resolve node IDs to them.
package dag

import (
	"fmt"
	"slices"

	"hta/internal/resources"
)

// Node is one task of the workflow.
type Node struct {
	ID       string
	Command  string
	Category string // stage tag; tasks of a category are copies of the same program
	Inputs   []string
	Outputs  []string
	// Resources is the declared requirement; the zero vector means
	// "unknown", which makes schedulers fall back to conservative
	// one-task-per-worker placement (paper §III-A).
	Resources resources.Vector
	// Local marks a rule to run at the workflow manager itself
	// rather than on a remote worker (Makeflow's LOCAL prefix).
	Local bool
	// Index is the node's position in insertion order; Add sets it.
	Index int32
}

// State is the runtime state of a node.
type State uint8

// Node states, in normal order of progression.
const (
	Pending  State = iota // waiting on dependencies
	Ready                 // all dependencies complete, not yet dispatched
	Running               // dispatched to the scheduler
	Complete              // finished successfully
	Failed                // finished unsuccessfully; may be retried
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Complete:
		return "complete"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Graph is a workflow DAG. Build it with Add calls followed by
// Finalize; after Finalize the runtime methods (Ready, Start,
// Complete, Fail) drive execution state.
type Graph struct {
	nodes    []Node           // by index
	index    map[string]int32 // node ID → index
	producer map[string]int32 // output file → producing node; build time only
	arena    []string         // shared backing of the nodes' file lists
	inputs   int              // total inputs, the bound on dependency edges
	// Edges in compressed sparse rows: node i's dependencies (input
	// order) are deps[depOff[i]:depOff[i+1]], its dependents likewise.
	depOff, deps             []int32
	dependentOff, dependents []int32
	state                    []State
	attempts                 []int32
	remaining                []int32 // unfinished dependency count
	nComplete                int
	finalized                bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{index: make(map[string]int32)}
}

// Grow makes room for n more nodes, sparing Add its reallocations.
func (g *Graph) Grow(n int) {
	g.nodes = slices.Grow(g.nodes, n)
	g.state = slices.Grow(g.state, n)
	g.attempts = slices.Grow(g.attempts, n)
	if len(g.nodes) == 0 && !g.finalized {
		g.index = make(map[string]int32, n)
	}
}

// Add inserts a node. It fails on duplicate node IDs, on two nodes
// producing the same output file, or after Finalize.
//
// Each ID and output costs one map assignment: a key that leaves its
// map's length unchanged was there already, and the rejected Add puts
// back the entry it overwrote. The producer map is made for the first
// node with outputs, sized to the capacity Grow reserved, so a bag of
// independent tasks never makes one.
func (g *Graph) Add(n Node) error {
	if g.finalized {
		return fmt.Errorf("dag: Add %q after Finalize", n.ID)
	}
	if n.ID == "" {
		return fmt.Errorf("dag: node with empty ID")
	}
	i := int32(len(g.nodes))
	had := len(g.index)
	g.index[n.ID] = i
	if len(g.index) == had {
		g.index[n.ID] = g.find(func(m *Node) bool { return m.ID == n.ID })
		return fmt.Errorf("dag: duplicate node ID %q", n.ID)
	}
	if len(n.Outputs) > 0 && g.producer == nil {
		g.producer = make(map[string]int32, cap(g.nodes))
	}
	for k, out := range n.Outputs {
		had := len(g.producer)
		g.producer[out] = i
		if len(g.producer) > had || slices.Contains(n.Outputs[:k], out) {
			continue
		}
		p := g.find(func(m *Node) bool { return slices.Contains(m.Outputs, out) })
		g.producer[out] = p
		for _, o := range n.Outputs[:k] {
			delete(g.producer, o)
		}
		delete(g.index, n.ID)
		return fmt.Errorf("dag: output %q produced by both %q and %q", out, g.nodes[p].ID, n.ID)
	}
	n.Index = i
	n.Inputs = g.copyFiles(n.Inputs)
	n.Outputs = g.copyFiles(n.Outputs)
	g.nodes = append(g.nodes, n)
	g.inputs += len(n.Inputs)
	g.state = append(g.state, Pending)
	g.attempts = append(g.attempts, 0)
	return nil
}

// find returns the index of the first node that matches: the owner of
// an entry a rejected Add overwrote, so only error paths scan.
func (g *Graph) find(match func(*Node) bool) int32 {
	for i := range g.nodes {
		if match(&g.nodes[i]) {
			return int32(i)
		}
	}
	panic("dag: overwritten map entry has no node")
}

// copyFiles copies a file list into the arena's shared chunks.
func (g *Graph) copyFiles(files []string) []string {
	if len(files) == 0 {
		return nil
	}
	if len(files) > cap(g.arena)-len(g.arena) {
		g.arena = make([]string, 0, max(4096, len(files)))
	}
	start := len(g.arena)
	g.arena = append(g.arena, files...)
	return g.arena[start:len(g.arena):len(g.arena)]
}

// Finalize resolves file dependencies into edges, verifies acyclicity
// and initializes runtime state. Inputs with no producer are treated
// as external source files.
func (g *Graph) Finalize() error {
	if g.finalized {
		return fmt.Errorf("dag: Finalize called twice")
	}
	n := len(g.nodes)
	g.depOff = make([]int32, n+1)
	g.deps = make([]int32, 0, g.inputs)
	g.dependentOff = make([]int32, n+1)
	last := make([]int32, n) // last[p] = i+1 once p is a dependency of i
	for i := range g.nodes {
		for _, in := range g.nodes[i].Inputs {
			p, ok := g.producer[in]
			if !ok || p == int32(i) || last[p] == int32(i)+1 {
				continue
			}
			last[p] = int32(i) + 1
			g.deps = append(g.deps, p)
			g.dependentOff[p+1]++
		}
		g.depOff[i+1] = int32(len(g.deps))
	}
	for i := 1; i <= n; i++ {
		g.dependentOff[i] += g.dependentOff[i-1]
	}
	g.dependents = make([]int32, len(g.deps))
	fill := last // reused as each node's next free dependent slot
	copy(fill, g.dependentOff[:n])
	for i := range g.nodes {
		for _, p := range g.depsOf(int32(i)) {
			g.dependents[fill[p]] = int32(i)
			fill[p]++
		}
	}
	if cycle := g.findCycle(); cycle != nil {
		return fmt.Errorf("dag: dependency cycle: %v", cycle)
	}
	g.remaining = make([]int32, n)
	g.producer = nil
	g.finalized = true
	g.Reset()
	return nil
}

func (g *Graph) depsOf(i int32) []int32 { return g.deps[g.depOff[i]:g.depOff[i+1]] }

func (g *Graph) dependentsOf(i int32) []int32 {
	return g.dependents[g.dependentOff[i]:g.dependentOff[i+1]]
}

// findCycle is a depth-first search from each node in insertion order,
// along dependencies in input order; it returns the first cycle met.
func (g *Graph) findCycle() []string {
	const white, gray, black = 0, 1, 2
	color := make([]uint8, len(g.nodes))
	type frame struct{ node, next int32 } // next: the node's next dependency edge
	var path []frame
	push := func(i int32) {
		color[i] = gray
		path = append(path, frame{i, g.depOff[i]})
	}
	for root := range g.nodes {
		if color[root] != white {
			continue
		}
		push(int32(root))
		for len(path) > 0 {
			f := &path[len(path)-1]
			if f.next == g.depOff[f.node+1] {
				color[f.node] = black
				path = path[:len(path)-1]
				continue
			}
			d := g.deps[f.next]
			f.next++
			switch color[d] {
			case gray: // a back edge: the cycle runs from here back to d
				var cycle []string
				for k := len(path) - 1; ; k-- {
					cycle = append(cycle, g.nodes[path[k].node].ID)
					if path[k].node == d {
						return cycle
					}
				}
			case white:
				push(d)
			}
		}
	}
	return nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Index returns the index of the node with the given ID.
func (g *Graph) Index(id string) (int32, bool) {
	i, ok := g.index[id]
	return i, ok
}

// Node returns a copy of the node with the given ID.
func (g *Graph) Node(id string) (Node, bool) {
	if i, ok := g.index[id]; ok {
		return g.nodes[i], true
	}
	return Node{}, false
}

// NodeIdx returns a copy of node i.
func (g *Graph) NodeIdx(i int32) Node { return g.nodes[i] }

// IDIdx returns node i's ID without copying the node.
func (g *Graph) IDIdx(i int32) string { return g.nodes[i].ID }

// IDs returns all node IDs in insertion order.
func (g *Graph) IDs() []string {
	out := make([]string, len(g.nodes))
	for i := range g.nodes {
		out[i] = g.nodes[i].ID
	}
	return out
}

// ids converts node indices to IDs; nil stays nil.
func (g *Graph) ids(is []int32) []string {
	if len(is) == 0 {
		return nil
	}
	out := make([]string, len(is))
	for k, i := range is {
		out[k] = g.nodes[i].ID
	}
	return out
}

// Dependencies returns the IDs of the nodes that must complete before id.
func (g *Graph) Dependencies(id string) []string { return g.edges(id, g.depOff, g.deps) }

// Dependents returns the IDs of the nodes that depend on id.
func (g *Graph) Dependents(id string) []string { return g.edges(id, g.dependentOff, g.dependents) }

// edges returns the IDs in one CSR row; nil before Finalize.
func (g *Graph) edges(id string, off, to []int32) []string {
	i, ok := g.index[id]
	if !ok || off == nil {
		return nil
	}
	return g.ids(to[off[i]:off[i+1]])
}

// SourceFiles returns input files no node produces, sorted.
func (g *Graph) SourceFiles() []string {
	produced := make(map[string]bool)
	for i := range g.nodes {
		for _, f := range g.nodes[i].Outputs {
			produced[f] = true
		}
	}
	out := []string{}
	for i := range g.nodes {
		for _, f := range g.nodes[i].Inputs {
			if !produced[f] {
				out = append(out, f)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// State returns the runtime state of a node; Pending if unknown.
func (g *Graph) State(id string) State {
	if i, ok := g.index[id]; ok {
		return g.state[i]
	}
	return Pending
}

// StateIdx returns the runtime state of node i.
func (g *Graph) StateIdx(i int32) State { return g.state[i] }

// Attempts returns how many times the node has been started.
func (g *Graph) Attempts(id string) int {
	if i, ok := g.index[id]; ok {
		return int(g.attempts[i])
	}
	return 0
}

// Ready returns the IDs of the Ready nodes, in insertion order.
func (g *Graph) Ready() []string { return g.ids(g.ReadyIdx(nil)) }

// ReadyIdx appends the indices of the Ready nodes, in order, to buf.
func (g *Graph) ReadyIdx(buf []int32) []int32 {
	g.mustFinal("Ready")
	for i, s := range g.state {
		if s == Ready {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

// Start transitions a Ready node to Running.
func (g *Graph) Start(id string) error { return g.byID("Start", id, g.StartIdx) }

// StartIdx transitions Ready node i to Running.
func (g *Graph) StartIdx(i int32) error {
	g.mustFinal("Start")
	if err := g.move(i, Ready, Running); err != nil {
		return err
	}
	g.attempts[i]++
	return nil
}

// Complete marks a Running node complete and returns the IDs of nodes
// that became Ready as a result, in insertion order.
func (g *Graph) Complete(id string) ([]string, error) {
	var newly []int32
	err := g.byID("Complete", id, func(i int32) (err error) {
		newly, err = g.CompleteIdx(i, nil)
		return err
	})
	return g.ids(newly), err
}

// CompleteIdx marks Running node i complete and appends the indices of
// the nodes that became Ready as a result, in insertion order, to buf.
func (g *Graph) CompleteIdx(i int32, buf []int32) ([]int32, error) {
	g.mustFinal("Complete")
	if err := g.move(i, Running, Complete); err != nil {
		return buf, err
	}
	g.nComplete++
	for _, d := range g.dependentsOf(i) {
		g.remaining[d]--
		if g.remaining[d] < 0 {
			panic(fmt.Sprintf("dag: dependency count underflow for %q", g.nodes[d].ID))
		}
		if g.remaining[d] == 0 && g.state[d] == Pending {
			g.state[d] = Ready
			buf = append(buf, d)
		}
	}
	return buf, nil
}

// Fail marks a Running node Failed.
func (g *Graph) Fail(id string) error {
	return g.byID("Fail", id, func(i int32) error { return g.move(i, Running, Failed) })
}

// Retry returns a Failed node to Ready so it can be dispatched again.
func (g *Graph) Retry(id string) error {
	return g.byID("Retry", id, func(i int32) error { return g.move(i, Failed, Ready) })
}

// Done reports whether every node is Complete.
func (g *Graph) Done() bool { return g.nComplete == len(g.nodes) }

// Completed returns the number of completed nodes.
func (g *Graph) Completed() int { return g.nComplete }

// Counts returns the number of nodes in each state.
func (g *Graph) Counts() map[State]int {
	out := make(map[State]int)
	for _, s := range g.state {
		out[s]++
	}
	return out
}

// byID runs a runtime operation on the node with the given ID.
func (g *Graph) byID(op, id string, fn func(i int32) error) error {
	g.mustFinal(op)
	i, ok := g.index[id]
	if !ok {
		return fmt.Errorf("dag: unknown node %q", id)
	}
	return fn(i)
}

// move takes node i from state from to state to.
func (g *Graph) move(i int32, from, to State) error {
	if s := g.state[i]; s != from {
		return fmt.Errorf("dag: node %q is %v, want %v", g.nodes[i].ID, s, from)
	}
	g.state[i] = to
	return nil
}

func (g *Graph) mustFinal(op string) {
	if !g.finalized {
		panic("dag: " + op + " before Finalize")
	}
}

// topo is Kahn's algorithm, its FIFO frontier seeded in index order.
func (g *Graph) topo() []int32 {
	indeg := make([]int32, len(g.nodes))
	out := make([]int32, 0, len(g.nodes))
	for i := range g.nodes {
		if indeg[i] = g.depOff[i+1] - g.depOff[i]; indeg[i] == 0 {
			out = append(out, int32(i))
		}
	}
	for h := 0; h < len(out); h++ {
		for _, d := range g.dependentsOf(out[h]) {
			if indeg[d]--; indeg[d] == 0 {
				out = append(out, d)
			}
		}
	}
	return out
}

// Levels partitions nodes by their depth: level 0 has no
// dependencies, level k depends only on levels < k with at least one
// dependency in level k-1. For stage-structured HTC workloads the
// levels correspond to stages.
func (g *Graph) Levels() [][]string {
	g.mustFinal("Levels")
	depth := make([]int32, len(g.nodes))
	var maxDepth int32
	for _, i := range g.topo() {
		for _, dep := range g.depsOf(i) {
			depth[i] = max(depth[i], depth[dep]+1)
		}
		maxDepth = max(maxDepth, depth[i])
	}
	levels := make([][]string, maxDepth+1)
	for i := range g.nodes {
		levels[depth[i]] = append(levels[depth[i]], g.nodes[i].ID)
	}
	return levels
}

// CategoryCounts returns the number of nodes per category.
func (g *Graph) CategoryCounts() map[string]int {
	out := make(map[string]int)
	for i := range g.nodes {
		out[g.nodes[i].Category]++
	}
	return out
}

// Categories returns the distinct categories in first-seen order.
func (g *Graph) Categories() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range g.nodes {
		c := g.nodes[i].Category
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Reset returns every node to its initial runtime state so the same
// graph can be executed again.
func (g *Graph) Reset() {
	g.mustFinal("Reset")
	g.nComplete = 0
	clear(g.attempts)
	for i := range g.nodes {
		g.remaining[i] = g.depOff[i+1] - g.depOff[i]
		g.state[i] = Pending
		if g.remaining[i] == 0 {
			g.state[i] = Ready
		}
	}
}
