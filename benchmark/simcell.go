package main

import (
	"fmt"
	"time"

	"hta/internal/core"
	"hta/internal/experiments"
	"hta/internal/kubesim"
	"hta/internal/metrics"
	"hta/internal/netsim"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// cellConfig selects the layers of one simulated stack. The zero value
// is a bare wq.Master on a simclock.Engine (dispatch-storm); hta adds
// kubesim, the core autoscaler with its monitor, and the 5 s sampler.
type cellConfig struct {
	hta       bool
	kube      kubesim.Config
	core      core.Config
	admission wq.AdmissionPolicy
	// linkMBps > 0 puts a netsim link with a per-stream cap between
	// the master and its workers.
	linkMBps, perTransferMBps float64
	// timeout bounds the run in simulated time; tasks unfinished then
	// count as failed.
	timeout time.Duration
	// probeEvery is the simulated period of the traced rep's probes.
	probeEvery time.Duration
}

// cell is one freshly built simulated stack, wired the way
// experiments.RunHTA and RunHTAStream wire theirs so that the numbers
// are the numbers of the paper's pipeline, but from the layer
// constructors, so that every call into a layer is the benchmark's own
// and can be timed. Layers the workload leaves out are nil.
type cell struct {
	cfg     cellConfig
	tr      *tracer
	eng     *simclock.Engine
	master  *wq.Master
	link    *netsim.Link
	cluster *kubesim.Cluster
	auto    *core.Autoscaler

	acct        *metrics.Account
	quotaCores  float64
	ticker      *simclock.Ticker
	samples     int
	peakNodes   int
	podsCreated int
	podEvents   int
	nodeEvents  int

	// end is the simulated instant the workload's last task reached a
	// terminal outcome; HTA's clean-up stage runs past it.
	end      time.Time
	finished bool

	probes *probeSet // traced rep only
}

// workerSelector matches the worker pods core.Autoscaler creates.
var workerSelector = map[string]string{"app": "wq-worker", "managed-by": "hta"}

func newCell(cfg cellConfig, tr *tracer) (*cell, error) {
	c := &cell{cfg: cfg, tr: tr, eng: simclock.NewEngine(experiments.SimStart)}
	if cfg.linkMBps > 0 {
		c.link = netsim.NewLink(c.eng, cfg.linkMBps, cfg.perTransferMBps)
	}
	if cfg.hta {
		c.cluster = kubesim.NewCluster(c.eng, cfg.kube)
		c.cluster.OnPod(func(ev kubesim.PodWatchEvent) {
			c.podEvents++
			if ev.Type == kubesim.Added {
				c.podsCreated++
			}
		})
		c.cluster.OnNode(func(kubesim.NodeWatchEvent) { c.nodeEvents++ })
	}
	c.master = wq.NewMaster(c.eng, c.link)
	c.master.SetAdmissionPolicy(cfg.admission)
	if cfg.hta {
		c.auto = core.New(c.eng, c.cluster, c.master, cfg.core)
		if err := c.auto.Start(); err != nil {
			return nil, err
		}
		kc := c.cluster.Config()
		c.quotaCores = float64(kc.MaxNodes) * kc.NodeAllocatable.CoresValue()
		c.acct = metrics.NewAccount()
		c.ticker = c.eng.Every(experiments.SampleInterval, "sampler", c.sample)
		c.sample()
	}
	if tr.on {
		c.probes = newProbeSet()
	}
	return c, nil
}

// stop releases the stack's periodic controllers.
func (c *cell) stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
	if c.cluster != nil {
		c.cluster.Stop()
	}
}

// sample records the supply/demand state: the reads and the arithmetic
// of the experiments package's sampler, which is not exported.
func (c *cell) sample() {
	c.tr.begin("harness.sample")
	now := c.eng.Now()
	s := c.master.Stats()
	supply := s.Capacity.CoresValue()
	shortage := c.shortageCores() + float64(c.auto.HeldTasks())
	if gap := c.quotaCores - supply; shortage > gap {
		shortage = gap
	}
	if shortage < 0 {
		shortage = 0
	}
	c.acct.Sample(now, supply, s.InUse.CoresValue(), shortage)
	// The experiments sampler also reads these every tick; a tick here
	// costs what a tick costs there.
	_ = c.auto.WorkerPodCount()
	_ = c.master.BusyCPU()
	if n := c.cluster.ReadyNodes(); n > c.peakNodes {
		c.peakNodes = n
	}
	c.samples++
	c.tr.end()
}

// shortageCores is the cores the waiting queue desires: the declared
// requirement, the category estimate, or one processor slot.
func (c *cell) shortageCores() float64 {
	est := c.auto.Monitor()
	var milli int64
	c.master.ForEachWaiting(func(t *wq.Task) {
		if !t.Resources.IsZero() {
			milli += t.Resources.MilliCPU
			return
		}
		if v, ok := est.EstimateResources(t.Category); ok && v.MilliCPU > 0 {
			milli += v.MilliCPU
			return
		}
		milli += 1000
	})
	return float64(milli) / 1000
}

// run is the timed region's engine loop: the benchmark's own
// `for cond() && eng.Step()`, which is all simclock.RunWhile is. The
// traced rep also runs the probes, from here and not from an engine
// event, so that a traced rep schedules and fires exactly the events an
// untraced one does.
func (c *cell) run() {
	deadline := c.eng.Now().Add(c.cfg.timeout)
	if c.probes == nil {
		for !c.finished && c.eng.Now().Before(deadline) && c.eng.Step() {
		}
	} else {
		next := c.eng.Now().Add(c.cfg.probeEvery)
		for !c.finished && c.eng.Now().Before(deadline) && c.eng.Step() {
			if now := c.eng.Now(); !now.Before(next) {
				c.probe()
				next = now.Add(c.cfg.probeEvery)
			}
		}
	}
	if !c.finished {
		c.end = c.eng.Now() // deadline passed, or a bare master ran dry
	}
}

// finish marks the workload done at the current simulated instant and
// ends the run, as RunHTAStream does.
func (c *cell) finish() {
	c.end = c.eng.Now()
	c.finished = true
}

// finishThroughCleanup marks the workload done but runs on through
// HTA's clean-up stage (drain the workers, delete the deployment), as
// RunHTA does.
func (c *cell) finishThroughCleanup() {
	c.end = c.eng.Now()
	c.auto.Shutdown(func() { c.finished = true })
}

// simResult is what one rep simulated. It holds only simulated
// quantities and counts, so every rep of a workload — timed or traced,
// on any machine — must produce the identical value.
type simResult struct {
	Events, Scheduled uint64
	Submitted         int
	Completed         int
	Shed              int
	Quarantined       int
	MakespanS         float64
	WasteCoreS        float64
	ShortageCoreS     float64
	SojournP50S       float64
	SojournP999S      float64
}

func (c *cell) simResult(submitted int, sojourns []time.Duration) simResult {
	r := simResult{
		Events:      c.eng.Processed(),
		Scheduled:   c.eng.Scheduled(),
		Submitted:   submitted,
		Completed:   c.master.CompletedCount(),
		Shed:        c.master.ShedCount(),
		Quarantined: c.master.QuarantinedCount(),
		MakespanS:   c.end.Sub(experiments.SimStart).Seconds(),
	}
	if c.acct != nil {
		r.WasteCoreS = c.acct.AccumulatedWaste(c.end)
		r.ShortageCoreS = c.acct.AccumulatedShortage(c.end)
	}
	if len(sojourns) > 0 {
		q := metrics.DurationQuantiles(sojourns, 0.50, 0.999)
		r.SojournP50S, r.SojournP999S = q[0].Seconds(), q[1].Seconds()
	}
	return r
}

// failed is the number of submitted tasks that did not complete: shed,
// quarantined, or unfinished at the deadline.
func (r simResult) failed() int { return r.Submitted - r.Completed }

// check verifies the workload's output: every submitted task reached a
// terminal outcome, and that outcome was completion.
func (r simResult) check() error {
	if r.Completed+r.Shed+r.Quarantined != r.Submitted {
		return fmt.Errorf("completed %d + shed %d + quarantined %d != submitted %d: %d tasks unfinished at the deadline",
			r.Completed, r.Shed, r.Quarantined, r.Submitted, r.Submitted-r.Completed-r.Shed-r.Quarantined)
	}
	if r.failed() > 0 {
		return fmt.Errorf("%d of %d tasks failed (shed %d, quarantined %d)", r.failed(), r.Submitted, r.Shed, r.Quarantined)
	}
	return nil
}
