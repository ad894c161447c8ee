package dag

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// model is the naive string-keyed graph the dense Graph replaced: one
// map per attribute, a recursive cycle search. FuzzGraphModel holds
// the two to the same answers.
type model struct {
	nodes      map[string]Node
	order      []string
	producer   map[string]string
	deps       map[string][]string
	dependents map[string][]string
	state      map[string]State
	attempts   map[string]int
	remaining  map[string]int
	nComplete  int
}

func newModel() *model {
	return &model{
		nodes: map[string]Node{}, producer: map[string]string{},
		deps: map[string][]string{}, dependents: map[string][]string{},
		state: map[string]State{}, attempts: map[string]int{}, remaining: map[string]int{},
	}
}

func (m *model) add(n Node) error {
	if n.ID == "" {
		return fmt.Errorf("dag: node with empty ID")
	}
	if _, dup := m.nodes[n.ID]; dup {
		return fmt.Errorf("dag: duplicate node ID %q", n.ID)
	}
	for _, out := range n.Outputs {
		if p, dup := m.producer[out]; dup {
			return fmt.Errorf("dag: output %q produced by both %q and %q", out, p, n.ID)
		}
	}
	m.nodes[n.ID] = n
	m.order = append(m.order, n.ID)
	for _, out := range n.Outputs {
		m.producer[out] = n.ID
	}
	return nil
}

func (m *model) finalize() error {
	for _, id := range m.order {
		seen := map[string]bool{}
		for _, in := range m.nodes[id].Inputs {
			p, ok := m.producer[in]
			if !ok || p == id || seen[p] {
				continue
			}
			seen[p] = true
			m.deps[id] = append(m.deps[id], p)
			m.dependents[p] = append(m.dependents[p], id)
		}
	}
	color := map[string]int{}
	var stack, cycle []string
	var visit func(id string) bool
	visit = func(id string) bool {
		color[id] = 1
		stack = append(stack, id)
		for _, d := range m.deps[id] {
			if color[d] == 1 {
				for i := len(stack) - 1; i >= 0; i-- {
					if cycle = append(cycle, stack[i]); stack[i] == d {
						break
					}
				}
				return true
			}
			if color[d] == 0 && visit(d) {
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[id] = 2
		return false
	}
	for _, id := range m.order {
		if color[id] == 0 && visit(id) {
			return fmt.Errorf("dag: dependency cycle: %v", cycle)
		}
	}
	m.reset()
	return nil
}

func (m *model) reset() {
	m.nComplete = 0
	for _, id := range m.order {
		m.remaining[id] = len(m.deps[id])
		m.attempts[id] = 0
		m.state[id] = Pending
		if m.remaining[id] == 0 {
			m.state[id] = Ready
		}
	}
}

// move checks id is in state from and moves it to state to.
func (m *model) move(id string, from, to State) error {
	s, ok := m.state[id]
	if !ok {
		return fmt.Errorf("dag: unknown node %q", id)
	}
	if s != from {
		return fmt.Errorf("dag: node %q is %v, want %v", id, s, from)
	}
	m.state[id] = to
	return nil
}

func (m *model) complete(id string) ([]string, error) {
	if err := m.move(id, Running, Complete); err != nil {
		return nil, err
	}
	m.nComplete++
	var newly []string
	for _, d := range m.dependents[id] {
		if m.remaining[d]--; m.remaining[d] == 0 && m.state[d] == Pending {
			m.state[d] = Ready
			newly = append(newly, d)
		}
	}
	return newly, nil
}

func (m *model) ready() []string {
	var out []string
	for _, id := range m.order {
		if m.state[id] == Ready {
			out = append(out, id)
		}
	}
	return out
}

func (m *model) topo() []string {
	indeg := map[string]int{}
	var out []string
	for _, id := range m.order {
		if indeg[id] = len(m.deps[id]); indeg[id] == 0 {
			out = append(out, id)
		}
	}
	for h := 0; h < len(out); h++ {
		for _, d := range m.dependents[out[h]] {
			if indeg[d]--; indeg[d] == 0 {
				out = append(out, d)
			}
		}
	}
	return out
}

func (m *model) levels() [][]string {
	depth := map[string]int{}
	top := 0
	for _, id := range m.topo() {
		for _, d := range m.deps[id] {
			depth[id] = max(depth[id], depth[d]+1)
		}
		top = max(top, depth[id])
	}
	levels := make([][]string, top+1)
	for _, id := range m.order {
		levels[depth[id]] = append(levels[depth[id]], id)
	}
	return levels
}

func (m *model) criticalPath() ([]string, time.Duration) {
	dist, prev := map[string]time.Duration{}, map[string]string{}
	best, bestDist := "", time.Duration(-1)
	for _, id := range m.topo() {
		var through time.Duration
		from := ""
		for _, d := range m.deps[id] {
			if dist[d] > through || (dist[d] == through && from == "") {
				through, from = dist[d], d
			}
		}
		dist[id], prev[id] = through+m.nodes[id].EstimatedDuration, from
		if dist[id] > bestDist {
			best, bestDist = id, dist[id]
		}
	}
	if best == "" {
		return nil, 0
	}
	var path []string
	for id := best; id != ""; id = prev[id] {
		path = append(path, id)
	}
	slices.Reverse(path)
	return path, bestDist
}

// FuzzGraphModel builds a small graph from the input's first bytes,
// with duplicate IDs, duplicate outputs, self inputs and cycles all
// reachable, then drives Start, Complete, Fail, Retry and Reset from
// the rest, checking the Graph against the model after every step.
func FuzzGraphModel(f *testing.F) {
	f.Add([]byte{4, 0x10, 0x21, 0x32, 0x43, 0, 1, 1, 2, 3, 5})
	f.Add([]byte{3, 0x11, 0x12, 0x21, 9, 9, 9})                // a two-node cycle
	f.Add([]byte{6, 0x01, 0x12, 0x23, 0x34, 0x45, 0x50, 0, 1}) // a chain
	f.Add([]byte{5, 0x00, 0x00, 0x11, 0x22, 0x33, 4, 8, 12, 16, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		file := func(b byte) string { return fmt.Sprintf("f%d", b%6) }
		g, m := NewGraph(), newModel()
		for n := int(next() % 10); n > 0; n-- {
			b := next()
			node := Node{
				ID:                fmt.Sprintf("n%d", b%8),
				Category:          fmt.Sprintf("c%d", b%3),
				Outputs:           []string{file(b >> 4)},
				EstimatedDuration: time.Duration(b%5) * time.Second,
			}
			if b%8 == 7 {
				node.ID = ""
			}
			for k := next() % 4; k > 0; k-- {
				node.Inputs = append(node.Inputs, file(next()))
			}
			errG, errM := g.Add(node), m.add(node)
			if fmt.Sprint(errG) != fmt.Sprint(errM) {
				t.Fatalf("Add(%+v): graph %v, model %v", node, errG, errM)
			}
		}
		errG, errM := g.Finalize(), m.finalize()
		if fmt.Sprint(errG) != fmt.Sprint(errM) {
			t.Fatalf("Finalize: graph %v, model %v", errG, errM)
		}
		if errG != nil {
			return
		}
		if got, want := g.TopoOrder(), m.topo(); !slices.Equal(got, want) {
			t.Fatalf("TopoOrder %v, model %v", got, want)
		}
		if got, want := g.Levels(), m.levels(); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("Levels %v, model %v", got, want)
		}
		gp, gd := g.CriticalPath()
		mp, md := m.criticalPath()
		if !slices.Equal(gp, mp) || gd != md {
			t.Fatalf("CriticalPath %v %v, model %v %v", gp, gd, mp, md)
		}
		for len(data) > 0 {
			b := next()
			id := "n9" // unknown
			if k := int(b>>3) % (len(m.order) + 1); k < len(m.order) {
				id = m.order[k]
			}
			var errG, errM error
			switch b % 6 {
			case 0, 1:
				errG, errM = g.Start(id), m.move(id, Ready, Running)
				if errM == nil {
					m.attempts[id]++
				}
			case 2, 3:
				var got, want []string
				got, errG = g.Complete(id)
				want, errM = m.complete(id)
				if !slices.Equal(got, want) {
					t.Fatalf("Complete(%s) newly ready %v, model %v", id, got, want)
				}
			case 4:
				if b&0x80 == 0 {
					errG, errM = g.Fail(id), m.move(id, Running, Failed)
				} else {
					errG, errM = g.Retry(id), m.move(id, Failed, Ready)
				}
			case 5:
				g.Reset()
				m.reset()
			}
			if fmt.Sprint(errG) != fmt.Sprint(errM) {
				t.Fatalf("op %d on %s: graph %v, model %v", b%6, id, errG, errM)
			}
			for _, id := range m.order {
				if g.State(id) != m.state[id] || g.Attempts(id) != m.attempts[id] {
					t.Fatalf("%s: graph %v/%d attempts, model %v/%d", id,
						g.State(id), g.Attempts(id), m.state[id], m.attempts[id])
				}
			}
			if got, want := g.Ready(), m.ready(); !slices.Equal(got, want) {
				t.Fatalf("Ready %v, model %v", got, want)
			}
			if g.Completed() != m.nComplete || g.Done() != (m.nComplete == len(m.order)) {
				t.Fatalf("Completed %d, model %d", g.Completed(), m.nComplete)
			}
		}
	})
}

// TestGraphCompleteZeroAlloc pins the index path flow drives: once the
// buffer has grown, executing the whole graph through StartIdx and
// CompleteIdx allocates nothing.
func TestGraphCompleteZeroAlloc(t *testing.T) {
	g := buildWide(1000)
	buf := make([]int32, 0, g.Len())
	allocs := testing.AllocsPerRun(10, func() {
		g.Reset()
		buf = g.ReadyIdx(buf[:0])
		for h := 0; h < len(buf); h++ {
			if err := g.StartIdx(buf[h]); err != nil {
				t.Fatal(err)
			}
			var err error
			if buf, err = g.CompleteIdx(buf[h], buf); err != nil {
				t.Fatal(err)
			}
		}
		if !g.Done() {
			t.Fatal("graph not done")
		}
	})
	if allocs != 0 {
		t.Errorf("executing the graph allocated %v times, want 0", allocs)
	}
}
