package flow

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"hta/internal/workload"
	"hta/internal/wq"
)

// ioBag is the io-fleet bag: n DefaultIOBound dd tasks.
func ioBag(n int) []wq.TaskSpec {
	p := workload.DefaultIOBound()
	p.N = n
	return p.Specs()
}

// TestFromSpecsAllocs pins a 40 000-task bag's graph set-up. The IDs
// are slices of one string and each goes into the index with one map
// assignment, so the count does not grow with the bag: about 170
// allocations, where one string per ID made two per task (80 214).
func TestFromSpecsAllocs(t *testing.T) {
	specs := ioBag(40000)
	got := testing.AllocsPerRun(3, func() {
		if _, _, err := FromSpecs(specs); err != nil {
			t.Fatal(err)
		}
	})
	if got >= 500 {
		t.Errorf("FromSpecs of %d specs allocates %v times, want under 500", len(specs), got)
	}
}

// TestFromSpecsNodes checks what the shared ID string must not change:
// node i is "task<i>" with spec i's category and index i, and the
// SpecFunc hands back the caller's spec i. 1234 tasks span four digit
// widths.
func TestFromSpecsNodes(t *testing.T) {
	specs := ioBag(1234)
	for i := range specs {
		specs[i].Category = fmt.Sprint("c", i%3)
	}
	g, fn, err := FromSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != len(specs) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(specs))
	}
	for i := range specs {
		n := g.NodeIdx(int32(i))
		if want := "task" + strconv.Itoa(i); n.ID != want || g.IDIdx(int32(i)) != want {
			t.Fatalf("node %d has ID %q, want %q", i, n.ID, want)
		}
		if j, ok := g.Index(n.ID); !ok || j != int32(i) {
			t.Fatalf("Index(%q) = %d, %v; want %d", n.ID, j, ok, i)
		}
		if n.Index != int32(i) || n.Category != specs[i].Category {
			t.Fatalf("node %d: Index %d, category %q; want %d, %q", i, n.Index, n.Category, i, specs[i].Category)
		}
		if got := fn(n); !reflect.DeepEqual(got, specs[i]) {
			t.Fatalf("SpecFunc(node %d) = %+v, want %+v", i, got, specs[i])
		}
	}
}

// BenchmarkFromSpecs measures building the io-fleet bag's graph: 40k
// I/O specs, generated once outside the timer.
func BenchmarkFromSpecs(b *testing.B) {
	specs := ioBag(40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FromSpecs(specs); err != nil {
			b.Fatal(err)
		}
	}
}
