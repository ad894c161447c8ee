package makeflow

import (
	"slices"
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

// fieldsCases are the splitter's table: every space strings.Fields
// knows, ASCII and not, and bytes that are not UTF-8.
var fieldsCases = []string{
	"",
	" ",
	"a",
	"out.1 out.2",
	"  in.1\tblastall  ",
	"a\r\nb\vc\fd",
	"\t\v\f\r\n ",
	"x\u0085y\u00a0z",
	" a\u3000b\u2028c\u1680d\u2009e ",
	"\u00a0\u3000",
	"\u65e5\u672c \u8a9e",
	"a\xffb \xff",
	"\xe2\x80 a",
	"\u200bzero-width-is-not-space",
}

// TestAppendFieldsMatchesStringsFields holds the parser's splitter to
// strings.Fields on the table, and shows it appends to what dst holds.
func TestAppendFieldsMatchesStringsFields(t *testing.T) {
	for _, s := range fieldsCases {
		if got, want := appendFields(nil, s), strings.Fields(s); !slices.Equal(got, want) {
			t.Errorf("appendFields(%q) = %q, want %q", s, got, want)
		}
	}
	if got := appendFields([]string{"kept"}, " a b "); !slices.Equal(got, []string{"kept", "a", "b"}) {
		t.Errorf("appendFields onto [kept] = %q", got)
	}
}

// FuzzAppendFields is the splitter's differential fuzz against
// strings.Fields.
func FuzzAppendFields(f *testing.F) {
	for _, s := range fieldsCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := appendFields(nil, s), strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("appendFields(%q) = %q, want %q", s, got, want)
		}
	})
}
