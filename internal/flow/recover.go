package flow

// Crash recovery for the workflow engine: a Runner can journal every
// rule transition to a makeflow.LogSink, and a restarted engine calls
// Recover to rebuild its DAG progress from the replayed log before
// starting a fresh Runner on the same scheduler.
//
// Semantics are at-least-once: a rule is journalled after its Submit
// returns, so a crash between the two resubmits the rule on restart;
// the master runs the duplicate and the DAG ignores the second
// completion (onComplete fences on node state). In the simulation the
// two steps are atomic — crashes land between events — so duplicates
// only arise for the real binaries.

import (
	"fmt"

	"hta/internal/dag"
	"hta/internal/makeflow"
)

// RecoverResult summarizes what Recover reconstructed.
type RecoverResult struct {
	// CompletedRules were marked complete and will never resubmit.
	CompletedRules int
	// InFlightRules were marked running; their completions arrive from
	// the (surviving or restored) master.
	InFlightRules int
	// FailedRules were marked permanently failed.
	FailedRules int
	// ReplayedRecords is the count of journal records applied.
	ReplayedRecords int
}

// Recover applies a replayed transaction log to a freshly built graph
// — the restart path of the workflow engine. Rules recorded done (or
// known complete at the scheduler, extraDone) are completed without
// resubmission; rules recorded submitted are marked Running so the
// new Runner neither resubmits them nor stalls on them — their
// results are delivered by the master, which kept (or restored) the
// tasks. Rules whose submit record survived but whose parent's done
// record was torn off stay Pending and are resubmitted when the
// parent's completion arrives (at-least-once). extraDone/extraFailed
// let the caller fold in the master's own completion record, covering
// tasks that finished while the engine was down.
func Recover(g *dag.Graph, rep *makeflow.Replay, extraDone, extraFailed []string) (RecoverResult, error) {
	var res RecoverResult
	const done, failed, inflight = 1, 2, 4
	mark := make(map[string]uint8) // a rule's flags; nonzero once in order
	var order []string             // completion application order: log order, then extras
	add := func(ids []string, flag uint8) {
		for _, id := range ids {
			if _, ok := g.Index(id); !ok {
				continue // journal from another workflow or a renamed rule
			}
			if mark[id] == 0 {
				order = append(order, id)
			}
			if flag != inflight {
				mark[id] &^= inflight // a done or failed record supersedes a submit
			}
			mark[id] |= flag
		}
	}
	if rep != nil {
		res.ReplayedRecords = rep.Records
		add(rep.Done, done)
		add(rep.Failed, failed)
		add(rep.InFlight, inflight)
	}
	add(extraDone, done)
	add(extraFailed, failed)
	// Completions respect dependency order in the journal (a child's
	// done record follows its parents'), but extras from the master are
	// unordered — iterate to a fixed point.
	for progressed := true; progressed; {
		progressed = false
		for _, id := range order {
			if mark[id]&done == 0 || g.State(id) != dag.Ready {
				continue
			}
			if err := g.Start(id); err != nil {
				return res, fmt.Errorf("flow: recover %s: %w", id, err)
			}
			if _, err := g.Complete(id); err != nil {
				return res, fmt.Errorf("flow: recover %s: %w", id, err)
			}
			res.CompletedRules++
			progressed = true
		}
	}
	for _, id := range order {
		switch {
		case mark[id]&failed != 0:
			if g.State(id) != dag.Ready {
				continue // parent progress torn off; cannot have run
			}
			if err := g.Start(id); err != nil {
				return res, fmt.Errorf("flow: recover %s: %w", id, err)
			}
			if err := g.Fail(id); err != nil {
				return res, fmt.Errorf("flow: recover %s: %w", id, err)
			}
			res.FailedRules++
		case mark[id]&inflight != 0:
			if g.State(id) != dag.Ready {
				continue // resubmitted later by the normal frontier walk
			}
			if err := g.Start(id); err != nil {
				return res, fmt.Errorf("flow: recover %s: %w", id, err)
			}
			res.InFlightRules++
		}
	}
	return res, nil
}
