package main

import (
	"fmt"
	"runtime"
	"time"
)

// rep is what one repetition of a workload measured.
type rep struct {
	setupS float64
	// wallS is the timed region: from handing the load to the stack to
	// the last event of the run, in host seconds.
	wallS float64
	tasks int // completed inside the timed region
	// mem is what the runtime did over the timed region; peakHeapMB is
	// over the whole rep, set-up included.
	mem        memDelta
	peakHeapMB float64
	sim        simResult
	// hasAccount and hasSojourn say which simulated metrics the
	// workload's stack produces: waste and shortage need the sampler,
	// sojourn a workload that records it.
	hasAccount, hasSojourn bool
	// layer holds the per-layer metrics of a traced rep.
	layer map[string]float64
}

func (r rep) tasksPerS() float64     { return float64(r.tasks) / r.wallS }
func (r rep) allocsPerTask() float64 { return float64(r.mem.mallocs) / float64(r.tasks) }

// simRep runs one repetition of a simulated workload on a fresh stack.
// Generation, parsing, stack build, fleet registration and arrival
// scheduling are set-up; the timed region starts when the load is
// handed over.
func simRep(w simWorkload, seed int64, tr *tracer) (rep, error) {
	runtime.GC()
	heap := startHeapSampler()
	tr.begin("run")
	t0 := time.Now()
	p, err := w.setup(seed, tr)
	if err != nil {
		heap.Stop()
		return rep{}, err
	}
	defer p.c.stop()
	setup := time.Since(t0)

	before := readMem()
	tr.begin("engine.run")
	t1 := time.Now()
	p.start()
	p.c.run()
	wall := time.Since(t1)
	tr.end()
	mem := memSince(before)
	tr.end()

	var sojourns []time.Duration
	if p.sojourns != nil {
		sojourns = *p.sojourns
	}
	r := rep{
		setupS:     setup.Seconds(),
		wallS:      wall.Seconds(),
		mem:        mem,
		sim:        p.c.simResult(p.submitted, sojourns),
		hasAccount: p.c.acct != nil,
		hasSojourn: p.sojourns != nil,
	}
	r.tasks = r.sim.Completed
	if tr.on {
		tot := tr.totals()
		r.layer = p.c.collect(tot, r)
		r.layer["harness.spans"] = float64(len(tr.spans))
		if p.layer != nil {
			p.layer(r.layer, tot)
		}
		// What stays reachable once the run is over, the stack still
		// referenced: the retained footprint, free of floating garbage.
		runtime.GC()
		r.layer["harness.retained_heap_mb"] = float64(readMem().HeapAlloc) / mb
		runtime.KeepAlive(p)
	}
	r.peakHeapMB = float64(heap.Stop()) / mb
	if p.verify != nil {
		if err := p.verify(); err != nil {
			return r, err
		}
	}
	if r.tasks == 0 {
		return r, fmt.Errorf("no task completed")
	}
	return r, nil
}

// collect gathers the per-layer metrics of a traced rep: counts from
// the layers' public accessors, times from the benchmark's spans and
// probes. A layer the workload's stack does not have reads 0.
func (c *cell) collect(tot map[string]spanTotals, r rep) map[string]float64 {
	out := make(map[string]float64)
	wallNS := r.wallS * 1e9

	out["simclock.events"] = float64(r.sim.Events)
	out["simclock.scheduled"] = float64(r.sim.Scheduled)
	out["simclock.ns_per_event"] = wallNS / float64(r.sim.Events)

	out["wq.submit_ms"] = ms(tot["wq.submit"].total)
	out["wq.add_worker_ms"] = ms(tot["wq.add_worker"].total)
	out["wq.complete_cb_ms"] = ms(tot["flow.on_complete"].total + tot["harness.on_complete"].total)
	p := c.probes
	out["wq.running_tasks_probe_us_p50"], out["wq.running_tasks_probe_us_max"] =
		durationStats(p.samples["wq.running_tasks_probe"], time.Microsecond)
	out["wq.waiting_scan_probe_us_p50"], out["wq.waiting_scan_probe_us_max"] =
		durationStats(p.samples["wq.waiting_scan_probe"], time.Microsecond)
	out["wq.stats_probe_ns"], _ = durationStats(p.samples["wq.stats_probe"], time.Nanosecond)
	out["wq.peak_waiting"] = float64(c.master.OverloadStats().PeakWaiting)
	out["wq.requeues"] = float64(c.master.FailureStats().Requeues)
	out["wq.shed"] = float64(r.sim.Shed)
	out["wq.quarantined"] = float64(r.sim.Quarantined)

	if c.link != nil {
		// Timed here, after the run, for the reason given in probe.
		samples := make([]time.Duration, 0, p.rounds)
		for i := 0; i < p.rounds; i++ {
			start := time.Now()
			for j := 0; j < probeBatch; j++ {
				sinkInt = c.link.Stats().Completed
			}
			samples = append(samples, time.Since(start)/probeBatch)
		}
		s := c.link.Stats()
		out["netsim.transfers"] = float64(s.Completed)
		out["netsim.delivered_mb"] = s.DeliveredMB
		out["netsim.sim_busy_s"] = s.BusyTime.Seconds()
		out["netsim.sim_avg_mbps"] = s.AvgBandwidth
		out["netsim.peak_active"] = float64(p.peakActive)
		out["netsim.stats_probe_us_p50"], _ = durationStats(samples, time.Microsecond)
	}

	if c.auto != nil {
		out["kubesim.pods_created"] = float64(c.podsCreated)
		out["kubesim.pod_events"] = float64(c.podEvents)
		out["kubesim.node_events"] = float64(c.nodeEvents)
		out["kubesim.peak_nodes"] = float64(c.peakNodes)
		out["kubesim.sim_init_mean_s"], _ = c.auto.Tracker().MeanStd()
		out["kubesim.list_pods_probe_us_p50"], out["kubesim.list_pods_probe_us_max"] =
			durationStats(p.samples["kubesim.list_pods_probe"], time.Microsecond)
		out["kubesim.ready_nodes_probe_us_p50"], _ = durationStats(p.samples["kubesim.ready_nodes_probe"], time.Microsecond)

		actions := 0
		for _, d := range c.auto.Decisions {
			if d.ScaleChange != 0 {
				actions++
			}
		}
		out["core.decisions"] = float64(len(c.auto.Decisions))
		out["core.scale_actions"] = float64(actions)
		out["core.panics"] = float64(c.auto.PanicCount())
		out["core.init_samples"] = float64(len(c.auto.Tracker().Samples()))
		out["core.input_probe_us_p50"], out["core.input_probe_us_max"] =
			durationStats(p.samples["core.input_probe"], time.Microsecond)
		out["core.plan_probe_us_p50"], out["core.plan_probe_us_max"] =
			durationStats(p.samples["core.plan_probe"], time.Microsecond)
		out["monitor.categories"] = float64(len(c.auto.Monitor().Categories()))
		out["monitor.estimate_probe_ns"], _ = durationStats(p.samples["monitor.estimate_probe"], time.Nanosecond)
	}

	run := tot["engine.run"]
	out["harness.sample_ms"] = ms(tot["harness.sample"].total)
	out["harness.samples"] = float64(c.samples)
	// What is left of engine.run after every child span the benchmark
	// owns: time inside the layers that no call of the benchmark's
	// brackets, which only tracing inside the program can break down.
	out["harness.engine_unattributed_ms"] = ms(run.self)
	return out
}
