package monitor

import (
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

// ImportState replaces the monitor's aggregates with the exported
// state. Categories with no completed tasks (Count ≤ 0) are skipped.
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
