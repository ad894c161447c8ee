package makeflow

import (
	"strings"
	"testing"
)

// FuzzParse exercises the parser with arbitrary input: it must never
// panic, and any accepted workflow must produce a well-formed,
// acyclic graph.
func FuzzParse(f *testing.F) {
	f.Add(blastExample)
	f.Add("out: in\n\tcmd $(X)\n")
	f.Add("X=1\nexport X\nout: in a b \\\n c\n\tLOCAL run $$X\n")
	f.Add("CATEGORY=c\nCORES=0.5\nMEMORY=10\nDISK=2\n")
	f.Add(": \n\t\n")
	f.Add("a:\n\tx\nb: a\n\ty\n")
	f.Fuzz(func(t *testing.T, src string) {
		res, err := ParseString(src)
		if err != nil {
			return
		}
		g := res.Graph
		for cat, v := range res.CategoryResources {
			if !v.IsNonNegative() {
				t.Fatalf("category %q parsed to negative %v: %q", cat, v, src)
			}
		}
		for _, id := range g.IDs() {
			if n, _ := g.Node(id); !n.Resources.IsNonNegative() {
				t.Fatalf("node %q parsed to negative %v: %q", id, n.Resources, src)
			}
		}
		// Accepted graphs must be executable to completion.
		steps := 0
		for !g.Done() {
			ready := g.Ready()
			if len(ready) == 0 {
				t.Fatalf("accepted workflow deadlocks: %q", src)
			}
			for _, id := range ready {
				if err := g.Start(id); err != nil {
					t.Fatal(err)
				}
				if _, err := g.Complete(id); err != nil {
					t.Fatal(err)
				}
			}
			steps++
			if steps > g.Len()+1 {
				t.Fatalf("no progress executing accepted workflow: %q", src)
			}
		}
	})
}

// FuzzReplay exercises the transaction-log replay parser with
// arbitrary bytes: corrupt, truncated or interleaved records must
// never panic, and whatever is recovered must be a consistent prefix
// — every reported rule in exactly one of Done/Failed/InFlight, and
// replaying the recovered prefix again must reproduce the result.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(LogHeader + "\nsubmit rule1:a\ndone rule1:a\nsubmit rule2:b\n"))
	f.Add([]byte("submit a\nfail a\nsubmit a\ndone a\n"))
	f.Add([]byte("local x y with spaces\nsubmit x\n"))
	f.Add([]byte("done half-record"))            // torn tail
	f.Add([]byte("submit a\ngarbage\ndone a\n")) // corrupt middle
	f.Add([]byte("submit a\nsubmit b\ndone a\nfail b\n"))
	f.Add([]byte{0, 1, 2, '\n', 'd', 'o', 'n', 'e'})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReplayLog(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("ReplayLog returned error on in-memory input: %v", err)
		}
		seen := make(map[string]int)
		for _, id := range rep.Done {
			seen[id]++
		}
		for _, id := range rep.Failed {
			seen[id]++
		}
		for _, id := range rep.InFlight {
			seen[id]++
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("rule %q reported in %d buckets", id, n)
			}
		}
		if rep.Records < 0 || rep.Records > len(data) {
			t.Fatalf("implausible record count %d for %d bytes", rep.Records, len(data))
		}
		// Re-serializing the recovered state and replaying it must be a
		// fixed point: the prefix we recovered is itself a valid log.
		var b strings.Builder
		for _, id := range rep.InFlight {
			b.WriteString("submit " + id + "\n")
		}
		for _, id := range rep.Done {
			b.WriteString("done " + id + "\n")
		}
		for _, id := range rep.Failed {
			b.WriteString("fail " + id + "\n")
		}
		again, err := ReplayLog(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Done) != len(rep.Done) || len(again.Failed) != len(rep.Failed) ||
			len(again.InFlight) != len(rep.InFlight) || again.Truncated {
			t.Fatalf("recovered prefix is not a fixed point: %+v vs %+v", again, rep)
		}
	})
}
