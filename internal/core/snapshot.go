package core

import (
	"slices"
	"strings"
	"time"

	"hta/internal/bind"
	"hta/internal/kubesim"
	"hta/internal/monitor"
	"hta/internal/wq"
)

// AutoscalerState is the checkpoint an HTA controller persists: the
// learned feedback state (category measurements, initialization
// times, loss history) plus the submission-side bookkeeping that is
// not reconstructible from the cluster (held tasks, active probes).
// Pod membership is deliberately absent — it is owned by the API
// server and re-derived from a label-selector list on Restore, which
// is what makes the restore idempotent.
type AutoscalerState struct {
	Monitor monitor.State
	Tracker TrackerState

	RecentKills []time.Time
	LastStale   time.Time

	Held        map[string][]wq.TaskSpec
	ProbeActive []string // categories with a probe in flight, sorted

	PodSeq        int
	EverSubmitted bool
	WarmupOver    bool
}

// Snapshot captures the controller's checkpoint without disturbing
// it. Held task specs are deep-copied.
func (a *Autoscaler) Snapshot() AutoscalerState {
	st := AutoscalerState{
		Monitor:       a.mon.ExportState(),
		Tracker:       a.tracker.ExportState(),
		RecentKills:   append([]time.Time(nil), a.recentKills...),
		LastStale:     a.lastStale,
		PodSeq:        a.pods.Seq(),
		EverSubmitted: a.everSubmitted,
		WarmupOver:    a.warmupOver,
	}
	if len(a.held) > 0 {
		st.Held = make(map[string][]wq.TaskSpec, len(a.held))
		for cat, hs := range a.held {
			st.Held[cat] = append([]wq.TaskSpec(nil), hs...)
		}
	}
	for cat := range a.probeActive {
		st.ProbeActive = append(st.ProbeActive, cat)
	}
	slices.Sort(st.ProbeActive)
	return st
}

// Crash models the controller process dying: the resize loop stops,
// every subscription goes deaf, and all in-memory state is dropped.
// The returned checkpoint is what the process had persisted. Worker
// pods and the master keep running without it. Crash while already
// down returns the zero state.
func (a *Autoscaler) Crash() AutoscalerState {
	if a.down {
		return AutoscalerState{}
	}
	st := a.Snapshot()
	a.cycleTimer.Stop()
	a.stopPanicChecker()
	a.panicSt = panicState{}
	a.pods.Reset(0)
	a.held = make(map[string][]wq.TaskSpec)
	a.probeActive = make(map[string]bool)
	a.recentKills = nil
	a.lastStale = time.Time{}
	a.down = true
	return st
}

// Restore restarts the controller from its checkpoint and reconciles
// it against the live system, idempotently:
//
//   - a Running worker pod unknown to the master is adopted
//     (registered as a worker) rather than recreated — no double
//     scale-up;
//   - a master worker whose pod no longer exists is removed and its
//     tasks requeued — the pod deletion happened while nobody was
//     listening;
//   - held categories measured during the downtime are released —
//     their probe completed even though the completion event was
//     missed;
//   - everSubmitted is recomputed from the master's submission count,
//     covering tasks submitted directly while the controller was
//     away.
//
// The learned state (estimates, init times, loss history) is imported
// as-is, so no re-learning happens. Restore returns the number of
// divergences it corrected.
func (a *Autoscaler) Restore(st AutoscalerState) int {
	a.down = false
	a.mon.ImportState(st.Monitor)
	a.tracker.ImportState(st.Tracker)
	a.recentKills = append([]time.Time(nil), st.RecentKills...)
	a.lastStale = st.LastStale
	a.everSubmitted = st.EverSubmitted || a.master.SubmittedCount() > 0
	a.warmupOver = st.WarmupOver
	a.held = make(map[string][]wq.TaskSpec, len(st.Held))
	for cat, hs := range st.Held {
		a.held[cat] = append([]wq.TaskSpec(nil), hs...)
	}
	a.probeActive = make(map[string]bool, len(st.ProbeActive))
	for _, cat := range st.ProbeActive {
		a.probeActive[cat] = true
	}

	corrections := 0
	// Re-derive pod membership from the API server.
	a.pods.Reset(st.PodSeq)
	live := a.cluster.ListPods(workerLabels)
	slices.SortFunc(live, func(a, b kubesim.Pod) int { return strings.Compare(a.Name, b.Name) })
	for _, p := range live {
		// A Running pod whose worker the master does not know came up
		// while the controller was down; connect it.
		if a.pods.Adopt(p) && p.Phase == kubesim.PodRunning && a.pods.Connect(p.Name, p.Resources) == nil {
			corrections++
		}
	}
	// Master workers whose pod vanished during the downtime: the
	// deletion event was missed, so requeue their tasks now.
	for _, id := range a.master.Workers() {
		if !strings.HasPrefix(id, workerPrefix) {
			continue // not a pod this controller manages
		}
		if _, mine := a.pods.State(id); !mine {
			a.noteWorkerLoss()
			_ = a.master.KillWorker(id)
			corrections++
		}
	}
	// Held categories measured while the controller was away.
	cats := make([]string, 0, len(a.held))
	for cat := range a.held {
		cats = append(cats, cat)
	}
	slices.Sort(cats)
	for _, cat := range cats {
		if !a.mon.Known(cat) {
			continue
		}
		a.releaseHeld(cat)
		corrections++
	}
	if a.started && !a.cleaned {
		a.scheduleNext(a.cfg.DefaultCycle)
		a.startPanicChecker()
	}
	return corrections
}

// Down reports whether the controller is crashed (between Crash and
// Restore).
func (a *Autoscaler) Down() bool { return a.down }

// OnMasterRestored reconciles the controller after a *master* restart
// it survived: drain requests die with the old master process (a
// reattached worker is not draining), so pods the controller still
// thinks are draining but whose worker reattached are flipped back to
// active; a later resize re-drains them if capacity is still surplus.
// Returns the number of corrections.
func (a *Autoscaler) OnMasterRestored() int {
	corrections := 0
	for _, name := range a.pods.Sorted() {
		st, _ := a.pods.State(name)
		if _, alive := a.master.WorkerCapacity(name); st == bind.PodDraining && alive {
			a.pods.Set(name, bind.PodActive)
			corrections++
		}
	}
	return corrections
}
