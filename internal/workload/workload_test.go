package workload

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hta/internal/wq"
)

func TestBlastFlatDefaults(t *testing.T) {
	p := DefaultBlastFlat(200)
	specs := p.Specs()
	if len(specs) != 200 {
		t.Fatalf("specs = %d", len(specs))
	}
	for i, s := range specs {
		if s.Category != "align" {
			t.Fatalf("spec %d category = %q", i, s.Category)
		}
		if s.Resources.IsZero() {
			t.Fatalf("spec %d requirements unknown, want declared", i)
		}
		if len(s.SharedInputs) != 1 || s.SharedInputs[0].SizeMB != BlastSharedDBMB {
			t.Fatalf("spec %d shared inputs = %v", i, s.SharedInputs)
		}
		if s.OutputMB != BlastOutputMB {
			t.Fatalf("spec %d output = %v", i, s.OutputMB)
		}
		d := s.Profile.ExecDuration
		mean := float64(BlastExecMean)
		lo := time.Duration(mean * 0.89)
		hi := time.Duration(mean * 1.11)
		if d < lo || d > hi {
			t.Fatalf("spec %d exec = %v outside jitter band", i, d)
		}
	}
}

func TestBlastFlatDeterministicBySeed(t *testing.T) {
	a := DefaultBlastFlat(20).Specs()
	b := DefaultBlastFlat(20).Specs()
	for i := range a {
		if a[i].Profile.ExecDuration != b[i].Profile.ExecDuration {
			t.Fatal("same seed produced different workloads")
		}
	}
	p := DefaultBlastFlat(20)
	p.Seed = 99
	c := p.Specs()
	same := true
	for i := range a {
		if a[i].Profile.ExecDuration != c[i].Profile.ExecDuration {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestMultistageStructure(t *testing.T) {
	p := DefaultMultistage()
	g, specFn, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 200+34+164 {
		t.Fatalf("Len = %d", g.Len())
	}
	counts := g.CategoryCounts()
	if counts["stage1"] != 200 || counts["stage2"] != 34 || counts["stage3"] != 164 {
		t.Errorf("category counts = %v", counts)
	}
	levels := g.Levels()
	if len(levels) != 3 {
		t.Fatalf("levels = %d", len(levels))
	}
	if len(levels[0]) != 200 || len(levels[1]) != 34 || len(levels[2]) != 164 {
		t.Errorf("level sizes = %d/%d/%d", len(levels[0]), len(levels[1]), len(levels[2]))
	}
	// Only stage1 is initially ready.
	if got := len(g.Ready()); got != 200 {
		t.Errorf("ready = %d, want 200", got)
	}
	// Every stage2 node depends only on stage1 nodes.
	for _, id := range levels[1] {
		deps := g.Dependencies(id)
		if len(deps) == 0 {
			t.Errorf("%s has no dependencies", id)
		}
	}
	// Specs resolve for every node with unknown resources (HTA mode).
	for _, id := range g.IDs() {
		n, _ := g.Node(id)
		s := specFn(n)
		if s.Category != n.Category {
			t.Fatalf("spec category mismatch for %s", id)
		}
		if !s.Resources.IsZero() {
			t.Fatalf("default multistage should leave resources unknown")
		}
		if s.Profile.ExecDuration <= 0 {
			t.Fatalf("spec %s has no duration", id)
		}
	}
}

func TestMultistageDeclared(t *testing.T) {
	p := DefaultMultistage()
	p.Declared = true
	g, specFn, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, _ := g.Node("s1_0")
	if specFn(n).Resources.IsZero() {
		t.Error("declared mode left resources unknown")
	}
}

func TestIOBoundDefaults(t *testing.T) {
	specs := DefaultIOBound().Specs()
	if len(specs) != 200 {
		t.Fatalf("specs = %d", len(specs))
	}
	for _, s := range specs {
		if s.Category != "io" {
			t.Fatalf("category = %q", s.Category)
		}
		if s.Profile.UsedCPUMilli != IOBoundCPUMilli {
			t.Fatalf("cpu = %d", s.Profile.UsedCPUMilli)
		}
		if !s.Resources.IsZero() {
			t.Fatal("default io workload should be undeclared")
		}
	}
}

func TestUniformParams(t *testing.T) {
	specs := UniformParams{N: 5, Exec: time.Second}.Specs()
	if len(specs) != 5 {
		t.Fatalf("specs = %d", len(specs))
	}
	if specs[0].Category != "uniform" {
		t.Errorf("default category = %q", specs[0].Category)
	}
}

// Property: multistage partitions cover every previous-stage output
// exactly — no stage-k output is orphaned.
func TestPropertyMultistagePartitionCovers(t *testing.T) {
	f := func(a, b, c uint8) bool {
		p := DefaultMultistage()
		p.StageCounts = [3]int{int(a%50) + 1, int(b%50) + 1, int(c%50) + 1}
		g, _, err := p.Build()
		if err != nil {
			return false
		}
		// Every stage1/stage2 node must have at least one dependent
		// unless it is in the final stage.
		levels := g.Levels()
		if len(levels) < 2 {
			return false
		}
		for li := 0; li+1 < len(levels); li++ {
			for _, id := range levels[li] {
				if len(g.Dependents(id)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJitterZeroMean(t *testing.T) {
	specs := UniformParams{N: 1}.Specs()
	if specs[0].Profile.ExecDuration != 0 {
		t.Errorf("zero mean produced %v", specs[0].Profile.ExecDuration)
	}
}

func TestStreamArrivals(t *testing.T) {
	p := DefaultStream()
	tasks := p.Tasks()
	if len(tasks) == 0 {
		t.Fatal("no arrivals")
	}
	// Expected count ≈ base rate × window = 10/min × 120min = 1200.
	if len(tasks) < 900 || len(tasks) > 1500 {
		t.Errorf("arrivals = %d, want ≈1200", len(tasks))
	}
	for i := 1; i < len(tasks); i++ {
		if tasks[i].At < tasks[i-1].At {
			t.Fatal("arrivals not sorted")
		}
	}
	last := tasks[len(tasks)-1]
	if last.At >= p.Window {
		t.Errorf("arrival at %v beyond window %v", last.At, p.Window)
	}
	if tasks[0].Spec.Category != "stream" || tasks[0].Spec.Profile.ExecDuration <= 0 {
		t.Errorf("spec = %+v", tasks[0].Spec)
	}
	// Default stream leaves requirements unknown.
	if !tasks[0].Spec.Resources.IsZero() {
		t.Error("default stream should be undeclared")
	}
}

func TestStreamDeterministicAndSeeded(t *testing.T) {
	a := DefaultStream().Tasks()
	b := DefaultStream().Tasks()
	if len(a) != len(b) {
		t.Fatal("same seed diverged")
	}
	for i := range a {
		if a[i].At != b[i].At {
			t.Fatal("same seed diverged in arrival times")
		}
	}
	p := DefaultStream()
	p.Seed = 99
	c := p.Tasks()
	if len(c) == len(a) && c[0].At == a[0].At && c[len(c)-1].At == a[len(a)-1].At {
		t.Error("different seeds produced identical streams")
	}
}

func TestStreamWaveModulatesRate(t *testing.T) {
	p := DefaultStream()
	p.Seed = 3
	tasks := p.Tasks()
	// Count arrivals in the first quarter-period (crest, sin>0) vs the
	// third quarter (trough, sin<0).
	crest, trough := 0, 0
	for _, tt := range tasks {
		phase := tt.At % p.Period
		switch {
		case phase < p.Period/2:
			crest++
		default:
			trough++
		}
	}
	if crest <= trough {
		t.Errorf("crest %d <= trough %d; wave not visible", crest, trough)
	}
}

func TestStreamValidation(t *testing.T) {
	p := DefaultStream()
	p.Amplitude = 1.5
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for amplitude >= 1")
		}
	}()
	p.Tasks()
}

func TestStreamEmptyParams(t *testing.T) {
	if got := (StreamParams{}).Tasks(); got != nil {
		t.Errorf("zero params produced %d tasks", len(got))
	}
}

func TestStreamDeclared(t *testing.T) {
	p := DefaultStream()
	p.Declared = true
	p.Window = 10 * time.Minute
	tasks := p.Tasks()
	if len(tasks) == 0 {
		t.Fatal("no tasks")
	}
	if tasks[0].Spec.Resources.MilliCPU != 1000 {
		t.Errorf("declared = %v", tasks[0].Spec.Resources)
	}
}

// TestGeneratedStrings pins every generated command, ID and file name
// to the fmt format it replaced; 1234 tasks span four digit widths.
func TestGeneratedStrings(t *testing.T) {
	const n = 1234
	check := func(what string, got []wq.TaskSpec, format string, args func(i int) []any) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: %d specs, want %d", what, len(got), n)
		}
		for i, s := range got {
			if want := fmt.Sprintf(format, args(i)...); s.Command != want {
				t.Fatalf("%s: command %d = %q, want %q", what, i, s.Command, want)
			}
		}
	}
	once := func(i int) []any { return []any{i} }
	check("blast", DefaultBlastFlat(n).Specs(), "blastall -i query.%d -o out.%d", func(i int) []any { return []any{i, i} })
	dd := DefaultIOBound()
	dd.N = n
	check("io", dd.Specs(), "dd if=/dev/sdb of=scratch.%d bs=1M", once)
	check("uniform", UniformParams{N: n}.Specs(), "task %d", once)

	p := DefaultMultistage()
	p.StageCounts = [3]int{n, 3, 2}
	g, specFn, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	i := int32(0)
	for stage, count := range p.StageCounts {
		for k := 0; k < count; k++ {
			nd := g.NodeIdx(i)
			id := fmt.Sprintf("s%d_%d", stage+1, k)
			if nd.ID != id || nd.Category != fmt.Sprintf("stage%d", stage+1) ||
				!slices.Equal(nd.Outputs, []string{id + ".out"}) || specFn(nd).Command != "blast-stage "+id {
				t.Fatalf("node %d = %+v, command %q; want ID %s", i, nd, specFn(nd).Command, id)
			}
			var inputs []string
			for j := 0; stage > 0 && j < p.StageCounts[stage-1]; j++ {
				inputs = append(inputs, fmt.Sprintf("s%d_%d.out", stage, j))
			}
			if !slices.Equal(nd.Inputs, inputs) {
				t.Fatalf("node %s inputs = %v, want %v", id, nd.Inputs, inputs)
			}
			i++
		}
	}
}

// TestIOBoundSpecsAllocs pins the io-fleet bag's generation: the dd
// commands share one string, so 40 000 specs cost a handful of
// allocations, not one fmt.Sprintf each (79 750).
func TestIOBoundSpecsAllocs(t *testing.T) {
	p := DefaultIOBound()
	p.N = 40000
	if got := testing.AllocsPerRun(3, func() { p.Specs() }); got >= 100 {
		t.Errorf("Specs of %d I/O tasks allocates %v times, want under 100", p.N, got)
	}
}
