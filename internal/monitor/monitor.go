// Package monitor implements the resource monitor of the paper's
// §IV-A: it aggregates the measured resource consumption and
// execution time of completed tasks per category and predicts the
// requirements of waiting tasks of the same category — the feedback
// input of the HTA controller. HTC stages consist of copies of the
// same program over equally sized data, so the first completed task
// of a category is a good predictor for the rest.
package monitor

import (
	"slices"
	"time"

	"hta/internal/resources"
	"hta/internal/wq"
)

// minCPUMilli floors the CPU estimate: a task always occupies at
// least one processor slot, what Work Queue's monitor reports for a
// single-process task regardless of how busy it keeps the core.
const minCPUMilli = 1000

// CategoryStats summarizes completed tasks of one category.
type CategoryStats struct {
	Category string
	Count    int
	// MaxUsage is the component-wise maximum measured consumption.
	MaxUsage resources.Vector
	// MeanExec and MaxExec summarize measured wall times.
	MeanExec time.Duration
	MaxExec  time.Duration
}

// Monitor aggregates task measurements. Like wq.Master it belongs to
// one goroutine and takes no lock: on the simulated path every call
// comes from the event loop. A caller with concurrent completions (the
// operator's wire connections) serializes its calls itself.
type Monitor struct {
	cats map[string]*catAgg
	// rev counts mutations that could change an estimate (observation
	// batches, state imports). Exposed via EstimateRev so the master's
	// per-category memo can skip re-aggregation in steady state.
	rev uint64
}

type catAgg struct {
	count     int
	maxUsage  resources.Vector
	totalExec time.Duration
	maxExec   time.Duration
}

// New returns an empty monitor.
func New() *Monitor {
	return &Monitor{cats: make(map[string]*catAgg)}
}

// Observe records one completed task of the category: its measured
// consumption and its wall time.
func (m *Monitor) Observe(category string, measured resources.Vector, wall time.Duration) {
	agg, ok := m.cats[category]
	if !ok {
		agg = &catAgg{}
		m.cats[category] = agg
	}
	agg.count++
	agg.maxUsage = agg.maxUsage.Max(measured)
	agg.totalExec += wall
	if wall > agg.maxExec {
		agg.maxExec = wall
	}
	m.rev++
}

// Known reports whether the category has at least one measurement.
func (m *Monitor) Known(category string) bool {
	return m.cats[category] != nil
}

// Stats returns the category summary.
func (m *Monitor) Stats(category string) (CategoryStats, bool) {
	agg, ok := m.cats[category]
	if !ok {
		return CategoryStats{}, false
	}
	return CategoryStats{
		Category: category,
		Count:    agg.count,
		MaxUsage: agg.maxUsage,
		MeanExec: agg.totalExec / time.Duration(agg.count),
		MaxExec:  agg.maxExec,
	}, true
}

// Categories returns the measured categories, sorted.
func (m *Monitor) Categories() []string {
	out := make([]string, 0, len(m.cats))
	for c := range m.cats {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// EstimateResources implements wq.Estimator: the component-wise
// maximum consumption seen for the category, CPU rounded up to whole
// processor slots.
func (m *Monitor) EstimateResources(category string) (resources.Vector, bool) {
	agg, ok := m.cats[category]
	if !ok {
		return resources.Zero, false
	}
	v := agg.maxUsage
	// Round CPU up to whole processor slots: a running process
	// occupies a core even when it does not saturate it.
	if v.MilliCPU < minCPUMilli {
		v.MilliCPU = minCPUMilli
	} else if rem := v.MilliCPU % 1000; rem != 0 {
		v.MilliCPU += 1000 - rem
	}
	return v, true
}

// EstimateExecTime implements wq.Estimator: the mean measured wall
// time for the category.
func (m *Monitor) EstimateExecTime(category string) (time.Duration, bool) {
	agg, ok := m.cats[category]
	if !ok {
		return 0, false
	}
	return agg.totalExec / time.Duration(agg.count), true
}

// EstimateRev implements wq.RevEstimator: the revision changes on
// every mutation that could alter an estimate, so the master can
// memoize per-category predictions and skip the monitor's map lookup
// and aggregation on the dispatch hot path between observation batches.
func (m *Monitor) EstimateRev() uint64 {
	return m.rev
}

var _ wq.Estimator = (*Monitor)(nil)
var _ wq.RevEstimator = (*Monitor)(nil)
