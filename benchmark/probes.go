package main

import (
	"time"

	"hta/internal/core"
	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/wq"
)

// probeSet holds the traced rep's probe timings. A probe is one call,
// made by the benchmark on the live state of a running simulation, of
// a public read function that the stack itself calls on its hot path
// (core's planner reads RunningTasks and WaitingTasks every cycle, the
// sampler scans the waiting queue every tick, ...). Probes only read,
// so they leave the simulation as it was.
type probeSet struct {
	rounds  int
	samples map[string][]time.Duration
	planner core.Planner
	// peakActive is the most concurrent netsim transfers a probe saw.
	peakActive int
}

func newProbeSet() *probeSet {
	return &probeSet{samples: make(map[string][]time.Duration)}
}

// probeBatch is how many back-to-back calls one sample of a
// nanosecond-scale probe times: a single call is shorter than the
// clock read around it.
const probeBatch = 64

// Sinks keep the compiler from discarding a probe's result.
var (
	sinkTasks    []wq.Task
	sinkPods     []kubesim.Pod
	sinkInt      int
	sinkStats    wq.Stats
	sinkVector   resources.Vector
	sinkDecision core.Decision
)

// timed runs fn inside a span and records its duration, divided by the
// number of calls fn makes.
func (c *cell) timed(name string, calls int, fn func()) {
	c.tr.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	c.tr.end()
	c.probes.samples[name] = append(c.probes.samples[name], d/time.Duration(calls))
}

// probe is one probe round.
func (c *cell) probe() {
	p := c.probes
	p.rounds++
	// A sink must not keep a round's copies (134 MB of tasks on
	// dispatch-storm) alive into the run.
	defer func() { sinkTasks, sinkPods = nil, nil }()
	c.timed("wq.running_tasks_probe", 1, func() { sinkTasks = c.master.RunningTasks() })
	c.timed("wq.waiting_scan_probe", 1, func() {
		n := 0
		c.master.ForEachWaiting(func(*wq.Task) { n++ })
		sinkInt = n
	})
	c.timed("wq.stats_probe", probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			sinkStats = c.master.Stats()
		}
	})
	if c.link != nil {
		// Link.Stats settles the link's accounting to the current
		// instant, which can move a later completion by a nanosecond;
		// it is timed after the run instead (see collect).
		if n := c.link.Active(); n > p.peakActive {
			p.peakActive = n
		}
	}
	if c.auto == nil {
		return
	}
	c.timed("kubesim.list_pods_probe", 1, func() { sinkPods = c.cluster.ListPods(workerSelector) })
	c.timed("kubesim.ready_nodes_probe", 1, func() { sinkInt = c.cluster.ReadyNodes() })
	var in core.EstimateInput
	c.timed("core.input_probe", 1, func() { in = c.estimateInput() })
	c.timed("core.plan_probe", 1, func() { sinkDecision = p.planner.EstimateScale(in) })
	mon := c.auto.Monitor()
	if cats := mon.Categories(); len(cats) > 0 {
		c.timed("monitor.estimate_probe", probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				sinkVector, _ = mon.EstimateResources(cats[i%len(cats)])
			}
		})
	}
}

// estimateInput assembles Algorithm 1's input from the public
// accessors the autoscaler's own (unexported) estimateInput uses.
func (c *cell) estimateInput() core.EstimateInput {
	var workers []core.WorkerInfo
	for _, id := range c.master.Workers() {
		if capacity, ok := c.master.WorkerCapacity(id); ok {
			workers = append(workers, core.WorkerInfo{ID: id, Capacity: capacity})
		}
	}
	cycle := c.cfg.core.DefaultCycle
	if cycle == 0 {
		cycle = 30 * time.Second // core.Config's default
	}
	return core.EstimateInput{
		Now:            c.eng.Now(),
		InitTime:       c.auto.Tracker().Latest(),
		DefaultCycle:   cycle,
		Running:        c.master.RunningTasks(),
		Waiting:        c.master.WaitingTasks(),
		Estimator:      c.auto.Monitor(),
		Workers:        workers,
		WorkerTemplate: c.cluster.Config().NodeAllocatable,
	}
}

// durationStats reports the median and maximum of a probe's samples in
// the given unit (0, 0 when the probe never ran).
func durationStats(ds []time.Duration, unit time.Duration) (p50, max float64) {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(unit)
		if vs[i] > max {
			max = vs[i]
		}
	}
	return quantile(vs, 0.5), max
}
