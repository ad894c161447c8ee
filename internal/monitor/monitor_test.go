package monitor

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"hta/internal/resources"
)

func TestUnknownCategory(t *testing.T) {
	m := New()
	if m.Known("x") {
		t.Error("Known on empty monitor")
	}
	if _, ok := m.EstimateResources("x"); ok {
		t.Error("estimate without observation")
	}
	if _, ok := m.EstimateExecTime("x"); ok {
		t.Error("exec estimate without observation")
	}
	if _, ok := m.Stats("x"); ok {
		t.Error("stats without observation")
	}
}

func TestSingleObservation(t *testing.T) {
	m := New()
	m.Observe("align", resources.Vector{MilliCPU: 870, MemoryMB: 3800, DiskMB: 1500}, 80*time.Second)
	if !m.Known("align") {
		t.Fatal("category not known after observation")
	}
	v, ok := m.EstimateResources("align")
	if !ok {
		t.Fatal("no estimate")
	}
	// 870 millicores rounds up to one whole processor slot.
	if v.MilliCPU != 1000 {
		t.Errorf("cpu estimate = %d, want 1000", v.MilliCPU)
	}
	if v.MemoryMB != 3800 || v.DiskMB != 1500 {
		t.Errorf("estimate = %v", v)
	}
	d, ok := m.EstimateExecTime("align")
	if !ok || d != 80*time.Second {
		t.Errorf("exec estimate = %v ok=%v", d, ok)
	}
}

func TestMaxAcrossObservations(t *testing.T) {
	m := New()
	m.Observe("c", resources.Vector{MilliCPU: 500, MemoryMB: 1000}, 10*time.Second)
	m.Observe("c", resources.Vector{MilliCPU: 2400, MemoryMB: 800}, 30*time.Second)
	v, _ := m.EstimateResources("c")
	// max(500, 2400) = 2400 → rounds to 3000; memory max 1000.
	if v.MilliCPU != 3000 || v.MemoryMB != 1000 {
		t.Errorf("estimate = %v", v)
	}
	d, _ := m.EstimateExecTime("c")
	if d != 20*time.Second {
		t.Errorf("mean exec = %v, want 20s", d)
	}
	st, _ := m.Stats("c")
	if st.Count != 2 || st.MaxExec != 30*time.Second {
		t.Errorf("stats = %+v", st)
	}
}

func TestWholeCoreNotRounded(t *testing.T) {
	m := New()
	m.Observe("c", resources.Vector{MilliCPU: 2000, MemoryMB: 1}, time.Second)
	v, _ := m.EstimateResources("c")
	if v.MilliCPU != 2000 {
		t.Errorf("exact 2 cores became %d", v.MilliCPU)
	}
}

func TestIOBoundTaskOccupiesFullSlot(t *testing.T) {
	// A dd-style task uses ~150 millicores of CPU but still occupies
	// a processor; the estimator must not let 6 of them share a core.
	m := New()
	m.Observe("io", resources.Vector{MilliCPU: 150, MemoryMB: 256, DiskMB: 4000}, 60*time.Second)
	v, _ := m.EstimateResources("io")
	if v.MilliCPU != 1000 {
		t.Errorf("cpu estimate = %d, want full slot 1000", v.MilliCPU)
	}
}

func TestCategoriesSorted(t *testing.T) {
	m := New()
	for _, c := range []string{"zeta", "alpha", "mid"} {
		m.Observe(c, resources.Cores(1), time.Second)
	}
	got := m.Categories()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Categories = %v", got)
		}
	}
}

// Property: the estimate always covers every observed usage (after
// slot rounding), and mean exec lies within [min, max].
func TestPropertyEstimateCovers(t *testing.T) {
	f := func(cpus []uint16, mems []uint16) bool {
		if len(cpus) == 0 {
			return true
		}
		m := New()
		var minD, maxD time.Duration
		for i, c := range cpus {
			mem := int64(0)
			if i < len(mems) {
				mem = int64(mems[i])
			}
			d := time.Duration(c%300+1) * time.Second
			if i == 0 || d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
			m.Observe("p", resources.Vector{MilliCPU: int64(c), MemoryMB: mem}, d)
		}
		est, ok := m.EstimateResources("p")
		if !ok {
			return false
		}
		for i, c := range cpus {
			mem := int64(0)
			if i < len(mems) {
				mem = int64(mems[i])
			}
			if est.MilliCPU < int64(c) || est.MemoryMB < mem {
				return false
			}
		}
		if est.MilliCPU%1000 != 0 {
			return false
		}
		mean, _ := m.EstimateExecTime("p")
		return mean >= minD && mean <= maxD
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValidateState pins which imported aggregates are impossible:
// Observe never produces a negative usage component or execution
// time, and a CPU maximum past MaxInt64-999 cannot be rounded up to a
// whole core.
func TestValidateState(t *testing.T) {
	ok := CategoryState{Category: "c", Count: 2, MaxUsage: resources.Vector{MilliCPU: 900, MemoryMB: 512, DiskMB: 10},
		TotalExec: 2 * time.Second, MaxExec: time.Second}
	cases := []struct {
		name  string
		edit  func(*CategoryState)
		valid bool
	}{
		{"observed", func(*CategoryState) {}, true},
		{"zero usage", func(c *CategoryState) { c.MaxUsage = resources.Zero }, true},
		{"negative cpu", func(c *CategoryState) { c.MaxUsage.MilliCPU = -1 }, false},
		{"negative memory", func(c *CategoryState) { c.MaxUsage.MemoryMB = -512 }, false},
		{"negative disk", func(c *CategoryState) { c.MaxUsage.DiskMB = -1 }, false},
		{"cpu past rounding", func(c *CategoryState) { c.MaxUsage.MilliCPU = math.MaxInt64 }, false},
		{"negative total exec", func(c *CategoryState) { c.TotalExec = -time.Second }, false},
		{"negative max exec", func(c *CategoryState) { c.MaxExec = -1 }, false},
		{"skipped empty category", func(c *CategoryState) { c.Count = 0; c.MaxUsage.MilliCPU = -1 }, true},
	}
	for _, tc := range cases {
		cs := ok
		tc.edit(&cs)
		err := State{Categories: []CategoryState{ok, cs}}.Validate()
		if (err == nil) != tc.valid {
			t.Errorf("%s: Validate = %v, want valid %v", tc.name, err, tc.valid)
		}
	}
}
