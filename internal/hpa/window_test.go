package hpa

import (
	"testing"
	"time"
)

// TestWindowHoldsHighestRecent: a rise applies at once, a fall waits
// until every higher recommendation has left the window, and a
// recommendation exactly at the cutoff still counts.
func TestWindowHoldsHighestRecent(t *testing.T) {
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	w := NewWindow(time.Minute)
	steps := []struct {
		at            time.Duration
		desired, want int
	}{
		{0, 2, 2},
		{15 * time.Second, 5, 5},
		{30 * time.Second, 1, 5},
		{75 * time.Second, 1, 5}, // the 5 at 15 s sits on the cutoff
		{76 * time.Second, 1, 1},
	}
	for _, s := range steps {
		if got := w.Observe(t0.Add(s.at), s.desired); got != s.want {
			t.Fatalf("Observe(%v, %d) = %d, want %d", s.at, s.desired, got, s.want)
		}
	}
	if len(w.recs) != 3 {
		t.Fatalf("window keeps %d recommendations, want 3", len(w.recs))
	}
}
