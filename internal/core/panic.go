package core

import (
	"time"

	"hta/internal/simclock"
)

// PanicConfig is the fast-path spike policy layered over Algorithm
// 1's per-cycle cadence, modeled on kthena's autoscaler: a panic
// threshold on short-window queue growth that bypasses the resize
// cycle, plus the steady-state damping (tolerance band, scale-down
// stabilization, per-direction cooldowns) that stops the cadence from
// thrashing around zero shortage. The zero value disables the whole
// layer — the decision path is then byte-identical to the plain
// per-cycle autoscaler.
type PanicConfig struct {
	// Enabled turns the panic checker and the decision governor on.
	Enabled bool
}

// The fixed settings of the panic policy.
const (
	// panicThresholdPercent is the queue-growth trigger: panic when
	// the waiting depth exceeds the depth panicWindow ago by more than
	// this percentage (2.5x). A baseline of zero triggers on
	// panicMinGrowth alone (a spike out of an empty queue).
	panicThresholdPercent = 150.0
	// panicWindow is the growth-measurement horizon — much shorter
	// than a resize cycle, so a burst is seen while the per-cycle loop
	// is still asleep.
	panicWindow = 30 * time.Second
	// panicCheckInterval is the sampling period of the panic checker.
	panicCheckInterval = 5 * time.Second
	// panicMinGrowth is the minimum absolute depth growth over
	// panicWindow that can trigger a panic — percentage growth on a
	// near-empty queue is noise.
	panicMinGrowth = 8
	// stabilizationWindow damps scale-downs two ways: after a panic,
	// scale-downs are suppressed for this long (the burst that caused
	// the panic is likely not over); and a per-cycle scale-down only
	// applies once downward proposals have persisted for this long.
	stabilizationWindow = 2 * time.Minute
	// tolerancePercent is the dead band around zero shortage: a
	// proposed change of at most this percentage of the current fleet
	// is held at zero instead of churning pods.
	tolerancePercent = 10.0
	// scaleUpCooldown is the minimum spacing between successive panic
	// scale-ups, so a sustained storm produces one panic per window,
	// not one per check. The per-cycle path is not gated: capacity the
	// planner asks for is never delayed.
	scaleUpCooldown = panicWindow
	// scaleDownCooldown is the minimum spacing between applied
	// scale-downs.
	scaleDownCooldown = time.Minute
)

// depthSample is one panic-checker observation of the queue.
type depthSample struct {
	at    time.Time
	depth int
}

// panicState is the autoscaler's spike-path bookkeeping. It lives in
// its own struct so Crash can drop it wholesale (the restarted
// controller re-learns the queue trajectory from scratch).
type panicState struct {
	ticker  *simclock.Ticker
	samples []depthSample // recent depth observations, oldest first

	lastPanic  time.Time
	panicUntil time.Time // scale-downs suppressed until here
	downSince  time.Time // first of the current run of downward proposals
	lastDown   time.Time // last applied scale-down
	panics     int
}

// PanicCount returns how many panic scale-ups fired.
func (a *Autoscaler) PanicCount() int { return a.panicSt.panics }

// startPanicChecker arms the fast sampling loop. No-op while the
// policy is disabled.
func (a *Autoscaler) startPanicChecker() {
	if !a.cfg.Panic.Enabled || a.panicSt.ticker != nil {
		return
	}
	a.panicSt.ticker = a.eng.Every(panicCheckInterval, "hta-panic-check", a.panicCheck)
}

// stopPanicChecker stops the sampling loop (clean-up, crash).
func (a *Autoscaler) stopPanicChecker() {
	if a.panicSt.ticker != nil {
		a.panicSt.ticker.Stop()
		a.panicSt.ticker = nil
	}
}

// panicCheck samples the queue depth and fires an immediate scale-up
// when the short-window growth crosses the panic threshold. The
// shortage is computed by Algorithm 1 itself with a zero-length
// window: running tasks hold their allocations, no completions are
// predicted, and the entire unplaced backlog bin-packs into new
// workers — the instantaneous shortage, not the forecast one.
func (a *Autoscaler) panicCheck() {
	if a.down || a.shutdown || a.cleaned {
		return
	}
	now := a.eng.Now()
	depth := a.master.Stats().Waiting
	st := &a.panicSt

	// Maintain the window of samples; the baseline is the oldest
	// observation still inside it.
	cutoff := now.Add(-panicWindow)
	keep := 0
	for keep < len(st.samples) && st.samples[keep].at.Before(cutoff) {
		keep++
	}
	// Keep one sample at or before the cutoff so the baseline spans
	// the full window rather than shrinking to the newest sample.
	if keep > 0 {
		keep--
	}
	st.samples = append(st.samples[:copy(st.samples, st.samples[keep:])], depthSample{at: now, depth: depth})

	if !a.everSubmitted {
		// Quiet-queue samples still enter the window so the first burst
		// is measured against a real baseline; only triggering waits.
		return
	}
	baseline := st.samples[0].depth
	growth := depth - baseline
	if growth < panicMinGrowth {
		return
	}
	if float64(depth) <= float64(baseline)*(1+panicThresholdPercent/100) {
		return
	}
	if !st.lastPanic.IsZero() && now.Sub(st.lastPanic) < scaleUpCooldown {
		return
	}

	dec := a.instantShortage()
	if dec.ScaleChange <= 0 {
		return
	}
	st.lastPanic = now
	st.panicUntil = now.Add(stabilizationWindow)
	st.downSince = time.Time{}
	// New capacity arrives one init time from now; pull the regular
	// cycle to that horizon instead of letting it fire mid-flight with
	// a stale view.
	dec.NextCycle = a.planningInitTime()
	a.Decisions = append(a.Decisions, DecisionRecord{At: now, Decision: dec, Panic: true})
	st.panics++
	a.apply(dec)
	a.cycleTimer.Stop()
	a.scheduleNext(dec.NextCycle)
}

// instantShortage evaluates Algorithm 1 with a zero-length window.
func (a *Autoscaler) instantShortage() Decision {
	in := a.estimateInput()
	in.InitTime = 0
	return a.planner.EstimateScale(in)
}

// planningInitTime is the init time decide() plans with.
func (a *Autoscaler) planningInitTime() time.Duration {
	if a.cfg.DisableInitFeedback {
		return a.cfg.InitTimeFallback
	}
	return a.tracker.Latest()
}

// governDecision applies the steady-state damping to a per-cycle
// decision: the tolerance dead band, the post-panic hold, the
// scale-down stabilization window and the scale-down cooldown. With
// the policy disabled it returns the decision untouched — the
// per-cycle path must stay byte-identical to the plain autoscaler
// (pinned by TestGovernorDisabledIsIdentity).
func (a *Autoscaler) governDecision(dec Decision) Decision {
	if !a.cfg.Panic.Enabled {
		return dec
	}
	now := a.eng.Now()
	st := &a.panicSt

	if tol := int(float64(a.WorkerPodCount()) * tolerancePercent / 100); dec.ScaleChange != 0 &&
		abs(dec.ScaleChange) <= tol {
		dec.ScaleChange = 0
		dec.NextCycle = a.cfg.DefaultCycle
	}
	if dec.ScaleChange >= 0 {
		st.downSince = time.Time{}
		return dec
	}
	// Downward proposal: hold it unless it is sustained, outside the
	// post-panic window, and off cooldown. A held-down decision
	// re-checks at the default cadence rather than sleeping through
	// its own stabilization window.
	hold := func() Decision {
		dec.ScaleChange = 0
		dec.NextCycle = a.cfg.DefaultCycle
		return dec
	}
	if now.Before(st.panicUntil) {
		return hold()
	}
	if st.downSince.IsZero() {
		st.downSince = now
		return hold()
	}
	if now.Sub(st.downSince) < stabilizationWindow {
		return hold()
	}
	if !st.lastDown.IsZero() && now.Sub(st.lastDown) < scaleDownCooldown {
		return hold()
	}
	st.lastDown = now
	return dec
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
