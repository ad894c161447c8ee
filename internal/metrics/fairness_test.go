package metrics

import (
	"math"
	"testing"
	"time"
)

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 1},
		{"one tenant", []float64{42}, 1},
		{"all zero", []float64{0, 0, 0}, 1},
		{"all equal", []float64{5, 5, 5, 5}, 1},
		{"one takes everything", []float64{10, 0, 0, 0}, 0.25},
		{"two of four served", []float64{7, 7, 0, 0}, 0.5},
		{"mild skew", []float64{4, 6}, (10.0 * 10.0) / (2 * (16.0 + 36.0))},
		{"negative clamped to zero", []float64{5, -5}, 0.5},
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: JainIndex(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
}

func TestJainIndexBounds(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100, 0.5, 7}
	j := JainIndex(xs)
	if j <= 1.0/float64(len(xs)) || j > 1 {
		t.Fatalf("JainIndex out of (1/n, 1] range: %v", j)
	}
}

func TestClusterOverload(t *testing.T) {
	per := []OverloadCounters{
		{PeakWaiting: 10, PeakBuffered: 3, Buffered: 7, Shed: 2, TimeInOverload: 40 * time.Second},
		{PeakWaiting: 5, PeakBuffered: 9, Buffered: 1, Shed: 0, TimeInOverload: 90 * time.Second},
		{}, // a master that never overloaded
	}
	got := ClusterOverload(per)
	want := OverloadCounters{
		PeakWaiting:    15, // sums: per-master peaks bound concurrent depth
		PeakBuffered:   12,
		Buffered:       8, // exact sums
		Shed:           2,
		TimeInOverload: 90 * time.Second, // max: windows overlap in wall time
	}
	if got != want {
		t.Fatalf("ClusterOverload = %+v, want %+v", got, want)
	}
}

func TestClusterOverloadEmpty(t *testing.T) {
	if got := ClusterOverload(nil); got != (OverloadCounters{}) {
		t.Fatalf("ClusterOverload(nil) = %+v, want zero", got)
	}
}
