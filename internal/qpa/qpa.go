// Package qpa implements a queue-proportional autoscaler — the
// KEDA-style event-driven baseline that post-dates the paper: it
// scales a WorkerSet to ceil(outstanding tasks / tasks-per-worker),
// knowing the queue length but neither the per-category resource
// consumption nor the cluster's resource-initialization time. The
// comparison against HTA isolates the value of the paper's two extra
// signals: without them the queue scaler over-provisions during
// provisioning cycles (the queue keeps "demanding" workers that are
// already on the way) unless it guesses a cooldown, and it packs
// tasks by a fixed per-worker slot count rather than measured sizes.
package qpa

import (
	"math"
	"time"

	"hta/internal/kubesim"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// Config tunes the controller.
type Config struct {
	// TasksPerWorker is the assumed worker slot count the operator
	// configures (KEDA's queueLength target). Required.
	TasksPerWorker int
	// MaxReplicas bounds the set (default 20; the floor is one
	// replica).
	MaxReplicas int
	// Stabilization is the scale-down stabilization window: the set
	// only shrinks to the highest recommendation of the window, the
	// behaviour KEDA inherits from the HPA it drives (default 5 min).
	Stabilization time.Duration
}

// The fixed replica floor and control-loop period.
const (
	minReplicas  = 1
	syncInterval = 15 * time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxReplicas == 0 {
		c.MaxReplicas = 20
	}
	if c.Stabilization == 0 {
		c.Stabilization = 5 * time.Minute
	}
	return c
}

type recommendation struct {
	at      time.Time
	desired int
}

// Controller scales a WorkerSet from the master's queue length.
type Controller struct {
	cluster *kubesim.Cluster
	set     *kubesim.WorkerSet
	master  *wq.Master
	cfg     Config
	ticker  *simclock.Ticker
	recs    []recommendation

	// LastDesired exposes the most recent pre-stabilization
	// recommendation.
	LastDesired int
}

// New attaches the controller and starts its loop. It panics if
// TasksPerWorker is not positive.
func New(cluster *kubesim.Cluster, set *kubesim.WorkerSet, master *wq.Master, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	if cfg.TasksPerWorker <= 0 {
		panic("qpa: TasksPerWorker must be positive")
	}
	c := &Controller{
		cluster: cluster,
		set:     set,
		master:  master,
		cfg:     cfg,
	}
	c.ticker = cluster.Engine().Every(syncInterval, "qpa-sync", c.sync)
	return c
}

// Stop halts the control loop.
func (c *Controller) Stop() { c.ticker.Stop() }

func (c *Controller) sync() {
	s := c.master.Stats()
	outstanding := s.Waiting + s.Running
	now := c.cluster.Engine().Now()
	desired := int(math.Ceil(float64(outstanding) / float64(c.cfg.TasksPerWorker)))
	if desired < minReplicas {
		desired = minReplicas
	}
	if desired > c.cfg.MaxReplicas {
		desired = c.cfg.MaxReplicas
	}
	c.LastDesired = desired

	// Scale-down stabilization: the effective count is the highest
	// recommendation inside the window; scale-ups apply immediately.
	c.recs = append(c.recs, recommendation{at: now, desired: desired})
	cutoff := now.Add(-c.cfg.Stabilization)
	keep := c.recs[:0]
	for _, r := range c.recs {
		if !r.at.Before(cutoff) {
			keep = append(keep, r)
		}
	}
	c.recs = keep
	effective := desired
	for _, r := range c.recs {
		if r.desired > effective {
			effective = r.desired
		}
	}
	if effective != c.set.Replicas() {
		c.set.SetReplicas(effective)
	}
}
