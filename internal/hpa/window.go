package hpa

import "time"

// Window is a scale-down stabilization window, shared by the HPA and
// the queue-proportional autoscaler: the effective replica count is
// the highest recommendation made within the window, so scale-ups
// take effect at once and scale-downs only once every higher
// recommendation has aged out.
type Window struct {
	length time.Duration
	recs   []recommendation
}

type recommendation struct {
	at      time.Time
	desired int
}

// NewWindow returns an empty window of the given length.
func NewWindow(length time.Duration) Window { return Window{length: length} }

// Observe records the recommendation desired made at now, drops those
// older than the window, and returns the highest one that remains.
func (w *Window) Observe(now time.Time, desired int) int {
	w.recs = append(w.recs, recommendation{at: now, desired: desired})
	cutoff := now.Add(-w.length)
	keep := w.recs[:0]
	for _, r := range w.recs {
		if !r.at.Before(cutoff) {
			keep = append(keep, r)
		}
	}
	w.recs = keep
	effective := desired
	for _, r := range w.recs {
		effective = max(effective, r.desired)
	}
	return effective
}
