package monitor

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"hta/internal/resources"
)

// CategoryState is the serializable aggregate for one category —
// everything Observe has accumulated, so an importing monitor
// produces identical estimates.
type CategoryState struct {
	Category  string
	Count     int
	MaxUsage  resources.Vector
	TotalExec time.Duration
	MaxExec   time.Duration
}

// State is the monitor's full learned state, categories sorted by
// name. It is what an autoscaler checkpoints so a restarted control
// plane does not re-learn resource requirements from scratch.
type State struct {
	Categories []CategoryState
}

// ExportState returns a deep copy of the learned aggregates.
func (m *Monitor) ExportState() State {
	st := State{Categories: make([]CategoryState, 0, len(m.cats))}
	for cat, agg := range m.cats {
		st.Categories = append(st.Categories, CategoryState{
			Category:  cat,
			Count:     agg.count,
			MaxUsage:  agg.maxUsage,
			TotalExec: agg.totalExec,
			MaxExec:   agg.maxExec,
		})
	}
	slices.SortFunc(st.Categories, func(a, b CategoryState) int {
		return strings.Compare(a.Category, b.Category)
	})
	return st
}

// Validate reports the first category aggregate that Observe could
// not have produced: a negative usage component, a negative execution
// time, or a CPU maximum too large to round up to whole cores.
// Categories with no completed tasks (Count ≤ 0) are not checked;
// ImportState skips them.
func (s State) Validate() error {
	for _, cs := range s.Categories {
		switch {
		case cs.Count <= 0:
		case !cs.MaxUsage.IsNonNegative():
			return fmt.Errorf("monitor: category %q: negative usage %+v", cs.Category, cs.MaxUsage)
		case cs.MaxUsage.MilliCPU > math.MaxInt64-999:
			return fmt.Errorf("monitor: category %q: CPU usage %d out of range", cs.Category, cs.MaxUsage.MilliCPU)
		case cs.TotalExec < 0 || cs.MaxExec < 0:
			return fmt.Errorf("monitor: category %q: negative execution time (total %v, max %v)",
				cs.Category, cs.TotalExec, cs.MaxExec)
		}
	}
	return nil
}

// ImportState replaces the monitor's aggregates with the exported
// state. Categories with no completed tasks (Count ≤ 0) are skipped.
// The state is trusted: validate one read from outside the process
// first (see Validate).
func (m *Monitor) ImportState(st State) {
	m.cats = make(map[string]*catAgg, len(st.Categories))
	for _, cs := range st.Categories {
		if cs.Count <= 0 {
			continue
		}
		m.cats[cs.Category] = &catAgg{
			count:     cs.Count,
			maxUsage:  cs.MaxUsage,
			totalExec: cs.TotalExec,
			maxExec:   cs.MaxExec,
		}
	}
	m.rev++
}
