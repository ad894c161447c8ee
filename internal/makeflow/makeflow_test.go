package makeflow

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"hta/internal/resources"
)

const blastExample = `
# A miniature BLAST workflow.
BLAST=./blastall
DB=nt.db

CATEGORY=split
CORES=1
MEMORY=1024
DISK=2000

query.0 query.1: input.fasta
	./split_fasta input.fasta 2

CATEGORY=align
CORES=1
MEMORY=4096
DISK=1800

out.0: query.0 $(DB)
	$(BLAST) -d $(DB) -i query.0 -o out.0

out.1: query.1 ${DB}
	$(BLAST) -d $(DB) -i query.1 -o out.1

CATEGORY=reduce
CORES=2
MEMORY=2048

result: out.0 out.1
	cat out.0 out.1 > result
`

func TestParseBlastExample(t *testing.T) {
	res, err := ParseString(blastExample)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	g := res.Graph
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	cats := g.CategoryCounts()
	if cats["split"] != 1 || cats["align"] != 2 || cats["reduce"] != 1 {
		t.Errorf("CategoryCounts = %v", cats)
	}
	// Levels correspond to the three stages.
	levels := g.Levels()
	if len(levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(levels))
	}
	// Category resources.
	if got := res.CategoryResources["align"]; got != resources.New(1, 4096, 1800) {
		t.Errorf("align resources = %v", got)
	}
	if got := res.CategoryResources["reduce"]; got != resources.New(2, 2048, 0) {
		t.Errorf("reduce resources = %v", got)
	}
	// Variable substitution inside commands.
	ready := g.Ready()
	if len(ready) != 1 {
		t.Fatalf("ready = %v", ready)
	}
	n, _ := g.Node(ready[0])
	if n.Command != "./split_fasta input.fasta 2" {
		t.Errorf("command = %q", n.Command)
	}
	// $(DB) expanded in the dependency list.
	align, _ := g.Node("rule2:out.0")
	found := false
	for _, in := range align.Inputs {
		if in == "nt.db" {
			found = true
		}
	}
	if !found {
		t.Errorf("inputs = %v, want expansion of $(DB)", align.Inputs)
	}
	if !strings.Contains(align.Command, "./blastall -d nt.db") {
		t.Errorf("align command = %q", align.Command)
	}
	// External source files.
	srcs := g.SourceFiles()
	wantSrcs := map[string]bool{"input.fasta": true, "nt.db": true}
	for _, s := range srcs {
		if !wantSrcs[s] {
			t.Errorf("unexpected source %q", s)
		}
	}
}

func TestMultiCommandRule(t *testing.T) {
	res, err := ParseString("out: in\n\tstep1 in\n\tstep2 > out\n")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Graph.Node("rule1:out")
	if n.Command != "step1 in && step2 > out" {
		t.Errorf("command = %q", n.Command)
	}
}

func TestLineContinuation(t *testing.T) {
	res, err := ParseString("out: in \\\n  more.db\n\tcmd in more.db\n")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Graph.Node("rule1:out")
	if len(n.Inputs) != 2 {
		t.Errorf("inputs = %v", n.Inputs)
	}
}

func TestCommentsAndDollarEscape(t *testing.T) {
	res, err := ParseString("X=5 # trailing comment\nout: in\n\techo $$HOME $(X)\n")
	if err != nil {
		t.Fatal(err)
	}
	if res.Variables["X"] != "5" {
		t.Errorf("X = %q", res.Variables["X"])
	}
	n, _ := res.Graph.Node("rule1:out")
	if n.Command != "echo $HOME 5" {
		t.Errorf("command = %q", n.Command)
	}
}

func TestReservedVariableExpansion(t *testing.T) {
	src := "CATEGORY=align\nCORES=2\nout: in\n\trun --cores $(CORES) --cat $(CATEGORY)\n"
	res, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Graph.Node("rule1:out")
	if n.Command != "run --cores 2 --cat align" {
		t.Errorf("command = %q", n.Command)
	}
}

func TestDefaultCategory(t *testing.T) {
	res, err := ParseString("out: in\n\tcmd\n")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Graph.Node("rule1:out")
	if n.Category != DefaultCategory {
		t.Errorf("category = %q", n.Category)
	}
	if !n.Resources.IsZero() {
		t.Errorf("resources = %v, want unknown (zero)", n.Resources)
	}
}

func errLine(t *testing.T, err error) int {
	t.Helper()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a ParseError", err)
	}
	return pe.Line
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src string
		line      int
		contains  string
	}{
		{"command without rule", "\tcmd\n", 1, "command without a preceding rule"},
		{"rule missing command", "out: in\nX=1\n", 1, "no command"},
		{"rule no targets", ": in\n\tcmd\n", 1, "no targets"},
		{"undefined variable", "out: in\n\tcmd $(NOPE)\n", 2, "undefined variable"},
		{"unterminated reference", "out: in\n\tcmd $(NOPE\n", 2, "unterminated"},
		{"bad cores", "CORES=lots\n", 1, "bad CORES"},
		{"NaN cores", "CORES=NaN\n", 1, "bad CORES"},
		{"infinite cores", "CORES=Inf\n", 1, "bad CORES"},
		{"huge cores", "CORES=1e300\n", 1, "bad CORES"},
		{"cores past int64 millicores", "CORES=9.3e15\n", 1, "bad CORES"},
		{"negative memory", "MEMORY=-4\n", 1, "bad MEMORY"},
		{"bad disk", "DISK=x\n", 1, "bad DISK"},
		{"empty category", "CATEGORY=\n", 1, "empty CATEGORY"},
		{"garbage line", "what even is this\n", 1, "expected rule or assignment"},
		{"duplicate producer", "out: a\n\tc1\nout: b\n\tc2\n", 3, "produced by both"},
		{"invalid var name", "out: in\n\tcmd $(9X)\n", 2, "invalid variable name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", c.src)
			}
			if !strings.Contains(err.Error(), c.contains) {
				t.Errorf("err = %v, want substring %q", err, c.contains)
			}
			if got := errLine(t, err); got != c.line {
				t.Errorf("line = %d, want %d", got, c.line)
			}
		})
	}
}

func TestCycleReported(t *testing.T) {
	_, err := ParseString("a: b.out\n\tcmd\nb.out: a\n\tcmd2\n")
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle", err)
	}
}

func TestResourcesPerCategoryIndependent(t *testing.T) {
	src := "CATEGORY=a\nCORES=1\nCATEGORY=b\nCORES=3\nCATEGORY=a\nMEMORY=512\nx: i\n\tc\n"
	res, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CategoryResources["a"]; got != resources.New(1, 512, 0) {
		t.Errorf("a = %v", got)
	}
	if got := res.CategoryResources["b"]; got != resources.New(3, 0, 0) {
		t.Errorf("b = %v", got)
	}
	// The rule appeared while category a was current.
	n, _ := res.Graph.Node("rule1:x")
	if n.Category != "a" {
		t.Errorf("category = %q", n.Category)
	}
}

func TestFractionalCores(t *testing.T) {
	res, err := ParseString("CATEGORY=c\nCORES=0.5\nx: i\n\tc\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CategoryResources["c"].MilliCPU; got != 500 {
		t.Errorf("millicores = %d", got)
	}
}

// Property: a generated fan workflow of any width parses back to a
// graph with the same structure.
func TestPropertyGeneratedFanRoundTrip(t *testing.T) {
	f := func(w uint8) bool {
		width := int(w%64) + 1
		var b strings.Builder
		b.WriteString("CATEGORY=map\nCORES=1\n")
		for i := 0; i < width; i++ {
			fmt.Fprintf(&b, "part.%d: input\n\tmap input %d\n", i, i)
		}
		b.WriteString("CATEGORY=reduce\nCORES=1\nresult:")
		for i := 0; i < width; i++ {
			fmt.Fprintf(&b, " part.%d", i)
		}
		b.WriteString("\n\treduce\n")
		res, err := ParseString(b.String())
		if err != nil {
			return false
		}
		g := res.Graph
		if g.Len() != width+1 {
			return false
		}
		if len(g.Ready()) != width {
			return false
		}
		levels := g.Levels()
		return len(levels) == 2 && len(levels[0]) == width && len(levels[1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSpaceIndentedCommands(t *testing.T) {
	res, err := ParseString("out: in\n    cmd via spaces\n")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Graph.Node("rule1:out")
	if n.Command != "cmd via spaces" {
		t.Errorf("command = %q", n.Command)
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := ParseString("")
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Len() != 0 {
		t.Errorf("Len = %d", res.Graph.Len())
	}
}

func TestExportStatements(t *testing.T) {
	res, err := ParseString("PATH=/opt/bin\nexport PATH\nexport BLASTDB=/data/nt\nout: in\n\tcmd\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"PATH", "BLASTDB"}
	if len(res.Exports) != 2 || res.Exports[0] != want[0] || res.Exports[1] != want[1] {
		t.Errorf("Exports = %v, want %v", res.Exports, want)
	}
	if res.Variables["BLASTDB"] != "/data/nt" {
		t.Errorf("BLASTDB = %q", res.Variables["BLASTDB"])
	}
}

func TestExportErrors(t *testing.T) {
	for _, src := range []string{
		"export\n",
		"export NOPE\n",
		"export 9bad\n",
	} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

func TestLocalRule(t *testing.T) {
	res, err := ParseString("out: in\n\tLOCAL gather in > out\nremote: out\n\tprocess out\n")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Graph.Node("rule1:out")
	if !n.Local {
		t.Error("LOCAL rule not flagged")
	}
	if n.Command != "gather in > out" {
		t.Errorf("command = %q (prefix must be stripped)", n.Command)
	}
	n2, _ := res.Graph.Node("rule2:remote")
	if n2.Local {
		t.Error("plain rule flagged local")
	}
}
