package dag

import (
	"fmt"
	"testing"
)

func buildWide(n int) *Graph {
	g := NewGraph()
	g.Add(Node{ID: "root", Outputs: []string{"root.out"}})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		g.Add(Node{ID: id, Inputs: []string{"root.out"}, Outputs: []string{id + ".out"}})
	}
	g.Add(Node{ID: "sink", Inputs: inputsOf(n)})
	if err := g.Finalize(); err != nil {
		panic(err)
	}
	return g
}

func inputsOf(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%d.out", i)
	}
	return out
}

// BenchmarkFinalize measures dependency resolution + cycle detection
// on a 10k-node fan.
func BenchmarkFinalize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGraph()
		g.Add(Node{ID: "root", Outputs: []string{"root.out"}})
		for j := 0; j < 10000; j++ {
			id := fmt.Sprintf("n%d", j)
			g.Add(Node{ID: id, Inputs: []string{"root.out"}, Outputs: []string{id + ".out"}})
		}
		if err := g.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteGraph measures the ready/start/complete state
// machine over a 10k-node fan.
func BenchmarkExecuteGraph(b *testing.B) {
	g := buildWide(10000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Reset()
		for !g.Done() {
			for _, id := range g.Ready() {
				g.Start(id)
				g.Complete(id)
			}
		}
	}
}
