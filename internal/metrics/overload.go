package metrics

import (
	"slices"
	"time"
)

// OverloadCounters aggregates a master's admission-control activity
// over one run: how deep the waiting queue and admission buffer got,
// how much traffic was shed at the hard cap, and how long the master
// spent deflecting submissions. The wq master fills them; the
// experiment harness surfaces them through RunResult.
type OverloadCounters struct {
	// PeakWaiting is the maximum waiting-queue depth observed.
	PeakWaiting int
	// PeakBuffered is the maximum admission-buffer depth observed.
	PeakBuffered int
	// Buffered counts submissions that were parked in the admission
	// buffer instead of entering the queue directly (they are admitted
	// later, in arrival order, as the queue drains).
	Buffered int
	// Shed counts submissions rejected outright at the hard cap
	// (queue at MaxWaiting and buffer full). Shed tasks are recorded
	// with a Rejected outcome and never executed.
	Shed int
	// TimeInOverload is the total duration the master spent deflecting
	// submissions: from the first buffered/shed submission until the
	// buffer drained and the queue dropped back under the cap.
	TimeInOverload time.Duration
}

// DurationQuantile returns the q-quantile (0 ≤ q ≤ 1) of the samples
// by linear interpolation between order statistics, or 0 for an empty
// set. The input slice is not modified. Callers extracting several
// quantiles from the same samples should use DurationQuantiles, which
// copies and sorts only once.
func DurationQuantile(samples []time.Duration, q float64) time.Duration {
	return DurationQuantiles(samples, q)[0]
}

// DurationQuantiles returns the requested quantiles of the samples,
// in the order given, from one shared copy-and-sort of the input. A
// quantile is computed by linear interpolation between order
// statistics; every result is 0 for an empty sample set. The input
// slice is not modified.
func DurationQuantiles(samples []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	n := len(samples)
	if n == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), samples...)
	slices.Sort(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// quantileSorted reads the q-quantile from an already sorted,
// non-empty sample set.
func quantileSorted(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}
