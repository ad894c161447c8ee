// Package hpa implements the Kubernetes Horizontal Pod Autoscaler —
// the baseline the paper compares against. The controller
// periodically computes
//
//	desired = ceil(current × currentUtilization / targetUtilization)
//
// (equation (1) of the paper) over the pods of a WorkerSet, with the
// standard refinements of the real controller: a ±10 % tolerance
// band, conservative treatment of pods without metrics (they count
// their full request as zero usage on scale-up), and a scale-down
// stabilization window during which the highest recent recommendation
// wins — the five-minute default that, as the paper's Fig. 10 shows,
// keeps an HTC cluster pinned at its peak size long after the demand
// has fallen.
package hpa

import (
	"math"
	"time"

	"hta/internal/kubesim"
	"hta/internal/simclock"
)

// Config tunes the controller; zero values take the Kubernetes
// defaults noted on each field.
type Config struct {
	// TargetCPUUtilization is the desired usage/request ratio in
	// (0, 1]; e.g. 0.2 for the paper's HPA-20%. Required.
	TargetCPUUtilization float64
	// MinReplicas is the floor (default 1).
	MinReplicas int
	// MaxReplicas is the ceiling (default 20).
	MaxReplicas int
	// ScaleDownStabilization is the window over which the highest
	// recommendation is kept before shrinking (default 5 min).
	ScaleDownStabilization time.Duration
}

// The Kubernetes defaults the controller keeps fixed: the control-loop
// period, and the tolerance that suppresses resizes when
// |ratio−1| ≤ tolerance.
const (
	syncInterval = 15 * time.Second
	tolerance    = 0.1
)

func (c Config) withDefaults() Config {
	if c.MinReplicas == 0 {
		c.MinReplicas = 1
	}
	if c.MaxReplicas == 0 {
		c.MaxReplicas = 20
	}
	if c.ScaleDownStabilization == 0 {
		c.ScaleDownStabilization = 5 * time.Minute
	}
	return c
}

type recommendation struct {
	at      time.Time
	desired int
}

// Controller is a running HPA attached to a WorkerSet.
type Controller struct {
	cluster *kubesim.Cluster
	set     *kubesim.WorkerSet
	cfg     Config
	ticker  *simclock.Ticker
	recs    []recommendation
	// LastDesired is the most recent pre-stabilization
	// recommendation, for observability (Fig. 2 plots it).
	LastDesired int
	// LastUtilization is the most recent measured utilization.
	LastUtilization float64
	syncs           int
	actions         int
}

// New attaches an HPA to the given WorkerSet and starts its sync
// loop. It panics if the target utilization is not in (0, 1].
func New(cluster *kubesim.Cluster, set *kubesim.WorkerSet, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	if cfg.TargetCPUUtilization <= 0 || cfg.TargetCPUUtilization > 1 {
		panic("hpa: TargetCPUUtilization must be in (0, 1]")
	}
	h := &Controller{cluster: cluster, set: set, cfg: cfg, LastDesired: set.Replicas()}
	h.ticker = cluster.Engine().Every(syncInterval, "hpa-sync", h.sync)
	return h
}

// Stop halts the control loop.
func (h *Controller) Stop() { h.ticker.Stop() }

// Syncs returns how many control iterations have run.
func (h *Controller) Syncs() int { return h.syncs }

// Actions returns how many replica changes the controller applied —
// the thrash count an experiment compares across autoscalers.
func (h *Controller) Actions() int { return h.actions }

func (h *Controller) sync() {
	h.syncs++
	live := h.set.LivePods()
	current := len(live)
	if current == 0 {
		// Nothing to measure; reconcile toward the floor.
		h.apply(h.cfg.MinReplicas)
		return
	}

	// Utilization: usage summed over running pods, requests summed
	// over all live pods — a pod without metrics (still Pending)
	// contributes its request with zero usage, the conservative
	// missing-metrics rule that damps scale-up overshoot.
	var usedMilli, reqMilli int64
	for _, p := range live {
		reqMilli += p.Resources.MilliCPU
		if p.Phase == kubesim.PodRunning {
			usedMilli += h.cluster.PodUsage(p.Name).MilliCPU
		}
	}
	if reqMilli == 0 {
		return
	}
	util := float64(usedMilli) / float64(reqMilli)
	h.LastUtilization = util

	ratio := util / h.cfg.TargetCPUUtilization
	desired := current
	if math.Abs(ratio-1) > tolerance {
		desired = int(math.Ceil(float64(current) * ratio))
	}
	desired = h.clamp(desired)
	h.LastDesired = desired
	h.apply(desired)
}

func (h *Controller) clamp(n int) int {
	if n < h.cfg.MinReplicas {
		n = h.cfg.MinReplicas
	}
	if n > h.cfg.MaxReplicas {
		n = h.cfg.MaxReplicas
	}
	return n
}

// apply records the recommendation and sets the stabilized replica
// count: scale-ups take effect immediately, scale-downs only to the
// highest recommendation within the stabilization window.
func (h *Controller) apply(desired int) {
	now := h.cluster.Engine().Now()
	h.recs = append(h.recs, recommendation{at: now, desired: desired})
	// Trim history outside the window.
	cutoff := now.Add(-h.cfg.ScaleDownStabilization)
	keep := h.recs[:0]
	for _, r := range h.recs {
		if !r.at.Before(cutoff) {
			keep = append(keep, r)
		}
	}
	h.recs = keep

	effective := desired
	for _, r := range h.recs {
		if r.desired > effective {
			effective = r.desired
		}
	}
	if effective != h.set.Replicas() {
		h.actions++
		h.set.SetReplicas(effective)
	}
}
