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

// Config tunes estimation.
type Config struct {
	// Margin inflates resource estimates by the given fraction
	// (0.1 = 10 % headroom). Default 0, the paper's behaviour of
	// applying measured consumption directly.
	Margin float64
	// MinCPUMilli floors the CPU estimate; a task always occupies at
	// least this many millicores of a worker (default 1000 — one
	// processor slot, what Work Queue's monitor reports for a
	// single-process task regardless of how busy it keeps the core).
	MinCPUMilli int64
}

func (c Config) withDefaults() Config {
	if c.MinCPUMilli == 0 {
		c.MinCPUMilli = 1000
	}
	return c
}

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
	cfg  Config
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
func New(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults(), cats: make(map[string]*catAgg)}
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
// processor slots, inflated by the configured margin.
func (m *Monitor) EstimateResources(category string) (resources.Vector, bool) {
	agg, ok := m.cats[category]
	if !ok {
		return resources.Zero, false
	}
	v := agg.maxUsage
	if m.cfg.Margin > 0 {
		v = resources.Vector{
			MilliCPU: v.MilliCPU + int64(float64(v.MilliCPU)*m.cfg.Margin),
			MemoryMB: v.MemoryMB + int64(float64(v.MemoryMB)*m.cfg.Margin),
			DiskMB:   v.DiskMB + int64(float64(v.DiskMB)*m.cfg.Margin),
		}
	}
	// Round CPU up to whole processor slots: a running process
	// occupies a core even when it does not saturate it.
	if v.MilliCPU < m.cfg.MinCPUMilli {
		v.MilliCPU = m.cfg.MinCPUMilli
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
