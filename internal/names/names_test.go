package names

import (
	"strconv"
	"strings"
	"testing"
)

// TestNumberedNames checks that every name reads prefix plus number,
// stays intact while later names fill and replace the chunk, and that
// names share chunks: cutting thousands of them allocates a chunk per
// few hundred.
func TestNumberedNames(t *testing.T) {
	var c Chunks
	const n = 5000
	got := make([]string, 0, n)
	for i := range n {
		got = append(got, c.Numbered("wq-worker-", i))
	}
	got = append(got, c.Numbered("", -9223372036854775808))
	long := strings.Repeat("p", 2*chunkBytes) // longer than a chunk
	got = append(got, c.Numbered(long, 7))
	for i := range n {
		if want := "wq-worker-" + strconv.Itoa(i); got[i] != want {
			t.Fatalf("name %d = %q, want %q", i, got[i], want)
		}
	}
	if got[n] != "-9223372036854775808" || got[n+1] != long+"7" {
		t.Fatalf("edge names %q, %q…", got[n], got[n+1][:10])
	}
	allocs := testing.AllocsPerRun(1000, func() { c.Numbered("node-", 12345) })
	if allocs != 0 {
		t.Errorf("cutting a name allocates %.2f times, want 0 amortized", allocs)
	}
}

// TestGrowPresizes checks that names cut after Grow(n) share one chunk
// while they fit in n bytes.
func TestGrowPresizes(t *testing.T) {
	const n, size = 10000, len("task 9999")
	var c Chunks
	allocs := testing.AllocsPerRun(3, func() {
		c.Grow(n * size)
		for i := range n {
			c.Numbered("task ", i)
		}
	})
	if allocs > 1 {
		t.Errorf("%d presized names allocate %.0f times, want 1", n, allocs)
	}
}
