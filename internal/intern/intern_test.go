package intern

import (
	"fmt"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	tb := NewTable()
	words := []string{"", "a", "b", "cat/worker-0", "a b", "\x00", "日本語"}
	ids := make([]int32, len(words))
	for i, w := range words {
		ids[i] = tb.Intern(w)
		if ids[i] != int32(i) {
			t.Fatalf("Intern(%q) = %d, want dense id %d", w, ids[i], i)
		}
	}
	if len(tb.strs) != len(words) {
		t.Fatalf("Len = %d, want %d", len(tb.strs), len(words))
	}
	for i, w := range words {
		if got := tb.Str(ids[i]); got != w {
			t.Fatalf("Str(%d) = %q, want %q", ids[i], got, w)
		}
		if again := tb.Intern(w); again != ids[i] {
			t.Fatalf("re-Intern(%q) = %d, want stable id %d", w, again, ids[i])
		}
		if id, ok := tb.ids[w]; !ok || id != ids[i] {
			t.Fatalf("ids[%q) = %d,%v, want %d,true", w, id, ok, ids[i])
		}
	}
	if _, ok := tb.ids["never-interned"]; ok {
		t.Fatal("un-interned string reported ok")
	}
}

func TestInternUniqueness(t *testing.T) {
	tb := NewTable()
	seen := make(map[int32]string)
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("w-%d", i)
		id := tb.Intern(s)
		if prev, dup := seen[id]; dup {
			t.Fatalf("id %d assigned to both %q and %q", id, prev, s)
		}
		seen[id] = s
	}
	if len(tb.strs) != 1000 {
		t.Fatalf("Len = %d, want 1000", len(tb.strs))
	}
}

func TestZeroTableReady(t *testing.T) {
	var tb Table
	if id := tb.Intern("zero"); id != 0 {
		t.Fatalf("zero Table Intern = %d, want 0", id)
	}
}

// TestInternSteadyStateZeroAlloc pins that re-interning known strings
// allocates nothing: hot paths intern per event and must not produce
// steady-state garbage.
func TestInternSteadyStateZeroAlloc(t *testing.T) {
	tb := NewTable()
	words := []string{"alpha", "beta", "gamma"}
	for _, w := range words {
		tb.Intern(w)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, w := range words {
			if tb.Intern(w) < 0 {
				t.Fatal("bad id")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Intern allocates %v per run, want 0", allocs)
	}
}

// FuzzInterner drives a Table from a byte script and checks the dense
// invariants hold: ids are 0..Len-1 in first-sight order, Str is the
// exact inverse of Intern, and a shadow map agrees with the id map.
func FuzzInterner(f *testing.F) {
	f.Add([]byte("a\nb\na\nc"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("worker-1\nworker-2\nworker-1\nshared.db\nworker-2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := NewTable()
		shadow := make(map[string]int32)
		var order []string
		start := 0
		for i := 0; i <= len(data); i++ {
			if i != len(data) && data[i] != '\n' {
				continue
			}
			s := string(data[start:i])
			start = i + 1
			id := tb.Intern(s)
			if want, ok := shadow[s]; ok {
				if id != want {
					t.Fatalf("Intern(%q) = %d, want stable %d", s, id, want)
				}
			} else {
				if int(id) != len(order) {
					t.Fatalf("Intern(%q) = %d, want next dense id %d", s, id, len(order))
				}
				shadow[s] = id
				order = append(order, s)
			}
			if got, ok := tb.ids[s]; !ok || got != id {
				t.Fatalf("ids[%q) = %d,%v, want %d,true", s, got, ok, id)
			}
		}
		if len(tb.strs) != len(order) {
			t.Fatalf("Len = %d, want %d distinct", len(tb.strs), len(order))
		}
		for id, s := range order {
			if got := tb.Str(int32(id)); got != s {
				t.Fatalf("Str(%d) = %q, want %q", id, got, s)
			}
		}
	})
}
