package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hta/internal/core"
	"hta/internal/dag"
	"hta/internal/experiments"
	"hta/internal/flow"
	"hta/internal/kubesim"
	"hta/internal/makeflow"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/workload"
	"hta/internal/wq"
)

// prepared is a simulated workload after set-up: a built stack and the
// first act of the timed region.
type prepared struct {
	c         *cell
	submitted int
	// start hands the load to the stack: submits the bag, or starts
	// the workflow runner. Stream arrivals are engine events scheduled
	// during set-up, so a stream's start does nothing.
	start func()
	// sojourns collects per-task sojourn times where the workload
	// reports them.
	sojourns *[]time.Duration
	// verify checks workload-specific output after the run.
	verify func() error
	// layer adds the workload's own per-layer values.
	layer func(out map[string]float64, tot map[string]spanTotals)
}

// simWorkload builds one fresh stack per rep from the seed.
type simWorkload interface {
	setup(seed int64, tr *tracer) (*prepared, error)
}

// kubeSeed is fixed: the benchmark's seed reaches only the workload
// generators, so provisioning latencies repeat across seeds.
const kubeSeed = 1

// --- dispatch-storm ---

// stormParams sizes dispatch-storm: a static fleet of four-core workers
// and a bag of declared one-core tasks submitted up front, on a bare
// wq.Master and simclock.Engine (the ROADMAP's ScaleDispatch/100k cell).
type stormParams struct {
	workers, tasks int
}

func (p stormParams) setup(seed int64, tr *tracer) (*prepared, error) {
	tr.begin("setup.generate")
	rng := simclock.NewRNG(seed)
	execs := make([]time.Duration, p.tasks)
	for i := range execs {
		execs[i] = time.Duration(rng.Jitter(float64(5*time.Minute), 0.8))
	}
	tr.end()

	tr.begin("setup.build")
	defer tr.end()
	// A probe round copies and sorts 400k running tasks, which takes
	// two seconds; three rounds are what a traced rep can afford.
	c, err := newCell(cellConfig{timeout: 24 * time.Hour, probeEvery: 6 * time.Minute}, tr)
	if err != nil {
		return nil, err
	}
	tr.begin("wq.add_worker")
	for w := 0; w < p.workers; w++ {
		if err := c.master.AddWorker(fmt.Sprintf("w%d", w), resources.New(4, 16384, 100000)); err != nil {
			return nil, err
		}
	}
	tr.end()
	return &prepared{
		c:         c,
		submitted: p.tasks,
		start: func() {
			// One span for the whole bag: a span per call would cost
			// more than the call.
			tr.begin("wq.submit")
			for _, d := range execs {
				c.master.Submit(wq.TaskSpec{
					Category:  "bench",
					Resources: resources.New(1, 1024, 100),
					Profile:   wq.Profile{ExecDuration: d, UsedCPUMilli: 900, UsedMemoryMB: 512},
				})
			}
			tr.end()
		},
		layer: func(out map[string]float64, tot map[string]spanTotals) {
			out["wq.submit_calls"] = float64(p.tasks)
		},
	}, nil
}

// --- bags driven by flow.Runner ---

// timedScheduler stands between flow.Runner and the autoscaler in the
// traced rep: it sees every Submit the runner makes and every
// completion the runner receives, which is where flow's time and the
// scheduler's time separate. Like the autoscaler it is a flow.Scheduler
// and a flow.FailureNotifier.
type timedScheduler struct {
	inner *core.Autoscaler
	tr    *tracer
	calls int
}

func (s *timedScheduler) Submit(spec wq.TaskSpec) int {
	s.calls++
	s.tr.begin("wq.submit")
	id := s.inner.Submit(spec)
	s.tr.end()
	return id
}

func (s *timedScheduler) OnComplete(fn func(wq.Result)) {
	s.inner.OnComplete(func(r wq.Result) {
		s.tr.begin("flow.on_complete")
		fn(r)
		s.tr.end()
	})
}

func (s *timedScheduler) OnTaskFailed(fn func(wq.Task)) { s.inner.OnTaskFailed(fn) }

// loaded is a bag or workflow generated from the seed: the DAG, the
// function that turns a node into a task, and — when the workload went
// through the Makeflow parser — the size of the text.
type loaded struct {
	g             *dag.Graph
	spec          flow.SpecFunc
	makeflowBytes int
}

// htaBag is a workload a flow.Runner drives through the HTA stack.
type htaBag interface {
	cellConfig() cellConfig
	load(seed int64, tr *tracer) (loaded, error)
}

// setupBag prepares the bag the way RunHTA runs one: a flow.Runner
// submitting to the autoscaler, finishing through HTA's clean-up stage.
func setupBag(b htaBag, seed int64, tr *tracer) (*prepared, error) {
	l, err := b.load(seed, tr)
	if err != nil {
		return nil, err
	}
	tr.begin("setup.build")
	defer tr.end()
	c, err := newCell(b.cellConfig(), tr)
	if err != nil {
		return nil, err
	}
	var sched flow.Scheduler = c.auto
	var timedSched *timedScheduler
	if tr.on {
		timedSched = &timedScheduler{inner: c.auto, tr: tr}
		sched = timedSched
	}
	runner := flow.NewRunner(l.g, sched, l.spec)
	runner.OnAllDone(c.finishThroughCleanup)
	return &prepared{
		c:         c,
		submitted: l.g.Len(),
		start: func() {
			tr.begin("flow.submit")
			runner.Start()
			tr.end()
		},
		verify: runner.Err,
		layer: func(out map[string]float64, tot map[string]spanTotals) {
			out["dag.nodes"] = float64(l.g.Len())
			out["wq.submit_calls"] = float64(timedSched.calls)
			out["flow.submit_ms"] = ms(tot["flow.submit"].self)
			out["flow.on_complete_ms"] = ms(tot["flow.on_complete"].self)
			if l.makeflowBytes > 0 {
				out["makeflow.bytes"] = float64(l.makeflowBytes)
				out["makeflow.rules"] = float64(l.g.Len())
				out["makeflow.parse_ms"] = ms(tot["makeflow.parse"].total)
			}
		},
	}, nil
}

// workflowParams sizes workflow-hta: generated Makeflow text of `stages`
// stages of `width` rules, each stage joined to the next by one reduce
// rule, so edges stay O(rules). Every stage and every join is its own
// category with undeclared requirements, so HTA measures each.
type workflowParams struct {
	stages, width int
	quotaNodes    int
}

// Execution times of workflow-hta's rules. A Makeflow file carries no
// execution model; the benchmark draws one per rule from the seed.
const (
	workflowStageExec = 2 * time.Minute
	workflowJoinExec  = 30 * time.Second
	workflowJitter    = 0.5
)

// generate writes the Makeflow text and draws each rule's execution
// time; execs[i] belongs to the i-th rule of the text, which the parser
// names "rule<i+1>:...".
func (p workflowParams) generate(seed int64) (text []byte, execs []time.Duration) {
	rng := simclock.NewRNG(seed)
	var b bytes.Buffer
	fmt.Fprintf(&b, "# workflow-hta: %d stages x %d rules, seed %d\n", p.stages, p.width, seed)
	for s := 0; s < p.stages; s++ {
		fmt.Fprintf(&b, "\nCATEGORY=stage%d\n", s)
		source := "input.dat"
		if s > 0 {
			source = fmt.Sprintf("join%d.out", s-1)
		}
		for i := 0; i < p.width; i++ {
			fmt.Fprintf(&b, "s%d.%d.out: %s\n\t./work --stage %d --part %d\n", s, i, source, s, i)
			execs = append(execs, time.Duration(rng.Jitter(float64(workflowStageExec), workflowJitter)))
		}
		fmt.Fprintf(&b, "\nCATEGORY=join%d\njoin%d.out:", s, s)
		for i := 0; i < p.width; i++ {
			fmt.Fprintf(&b, " s%d.%d.out", s, i)
		}
		fmt.Fprintf(&b, "\n\t./reduce --stage %d\n", s)
		execs = append(execs, time.Duration(rng.Jitter(float64(workflowJoinExec), workflowJitter)))
	}
	return b.Bytes(), execs
}

func (p workflowParams) load(seed int64, tr *tracer) (loaded, error) {
	tr.begin("setup.generate")
	text, execs := p.generate(seed)
	tr.end()

	tr.begin("makeflow.parse")
	parsed, err := makeflow.Parse(bytes.NewReader(text))
	tr.end()
	if err != nil {
		return loaded{}, err
	}
	if parsed.Graph.Len() != len(execs) {
		return loaded{}, fmt.Errorf("workflow-hta: parsed %d rules, generated %d", parsed.Graph.Len(), len(execs))
	}
	spec := func(n dag.Node) wq.TaskSpec {
		// Node IDs are "rule<N>:<first target>", N counting from 1.
		num, _, _ := strings.Cut(strings.TrimPrefix(n.ID, "rule"), ":")
		i, err := strconv.Atoi(num)
		if err != nil || i < 1 || i > len(execs) {
			panic(fmt.Sprintf("workflow-hta: unexpected node id %q", n.ID))
		}
		return wq.TaskSpec{
			Command:   n.Command,
			Category:  n.Category,
			Resources: n.Resources,
			Profile:   wq.Profile{ExecDuration: execs[i-1], UsedCPUMilli: 900, UsedMemoryMB: 1024},
		}
	}
	return loaded{g: parsed.Graph, spec: spec, makeflowBytes: len(text)}, nil
}

func (p workflowParams) cellConfig() cellConfig {
	return cellConfig{
		hta: true,
		kube: kubesim.Config{
			InitialNodes:   3,
			MinNodes:       1,
			MaxNodes:       p.quotaNodes,
			ScaleDownDelay: 10 * time.Minute,
			Seed:           kubeSeed,
		},
		core:       core.Config{MaxWorkers: p.quotaNodes},
		timeout:    48 * time.Hour,
		probeEvery: 30 * time.Second,
	}
}

func (p workflowParams) setup(seed int64, tr *tracer) (*prepared, error) {
	return setupBag(p, seed, tr)
}

// ioParams sizes io-fleet: the HTA cell of experiment E-H (the Fig. 11
// I/O-bound bag at fleet scale) for a quota of `workers` nodes.
type ioParams struct {
	workers int
}

func (p ioParams) load(seed int64, tr *tracer) (loaded, error) {
	tr.begin("setup.generate")
	defer tr.end()
	cfg := experiments.DefaultIOScale()
	gen := workload.DefaultIOBound()
	gen.N = cfg.TasksPerWorker * p.workers
	gen.ExecMean = cfg.ExecMean
	gen.ExecJitter = cfg.ExecJitter
	gen.InputMB = cfg.InputMB
	gen.OutputMB = cfg.OutputMB
	gen.Seed = seed
	g, spec, err := flow.FromSpecs(gen.Specs())
	return loaded{g: g, spec: spec}, err
}

func (p ioParams) cellConfig() cellConfig {
	cfg := experiments.DefaultIOScale()
	return cellConfig{
		hta: true,
		kube: kubesim.Config{
			InitialNodes:   3,
			MinNodes:       1,
			MaxNodes:       p.workers,
			ScaleDownDelay: 10 * time.Minute,
			Seed:           kubeSeed,
		},
		core:            core.Config{MaxWorkers: p.workers},
		linkMBps:        cfg.LinkMBps,
		perTransferMBps: cfg.PerTransfer,
		// E-H's own bound: saturated waves plus the autoscaler ramp.
		timeout:    time.Duration(cfg.TasksPerWorker/3+1)*cfg.ExecMean*4 + time.Hour,
		probeEvery: 30 * time.Second,
	}
}

func (p ioParams) setup(seed int64, tr *tracer) (*prepared, error) {
	return setupBag(p, seed, tr)
}

// --- stream-day ---

// streamParams sizes stream-day: workload.DayTrace at `rate` times its
// arrival rate, over a window of `window` (the whole day when zero),
// through HTA with the panic policy and bounded admission.
type streamParams struct {
	rate       float64
	window     time.Duration
	quotaNodes int
	admission  wq.AdmissionPolicy
}

func (p streamParams) trace(seed int64) workload.StreamParams {
	t := workload.DayTrace(seed)
	t.BasePerMin *= p.rate
	if p.window > 0 {
		t.Window = p.window
	}
	return t
}

func (p streamParams) cellConfig() cellConfig {
	return cellConfig{
		hta: true,
		kube: kubesim.Config{
			InitialNodes: 3,
			MinNodes:     1,
			MaxNodes:     p.quotaNodes,
			Seed:         kubeSeed,
		},
		core: core.Config{
			MaxWorkers:   p.quotaNodes,
			DefaultCycle: 3 * time.Minute,
			Panic:        core.PanicConfig{Enabled: true},
		},
		admission:  p.admission,
		timeout:    30 * time.Hour,
		probeEvery: time.Minute,
	}
}

func (p streamParams) setup(seed int64, tr *tracer) (*prepared, error) {
	tr.begin("setup.generate")
	tasks := p.trace(seed).Tasks()
	tr.end()

	tr.begin("setup.build")
	defer tr.end()
	c, err := newCell(p.cellConfig(), tr)
	if err != nil {
		return nil, err
	}
	prep := &prepared{c: c, submitted: len(tasks), start: func() {}}
	// The loop is open in simulated time: every arrival is an engine
	// event at its due instant, whatever the stack's backlog, so the
	// generator is never late and sojourn is timed from the due
	// arrival. (The master's SubmittedAt is later for the few tasks
	// HTA holds back during warm-up.)
	start := c.eng.Now()
	sojourns := make([]time.Duration, 0, len(tasks))
	prep.sojourns = &sojourns
	terminal := 0
	outcome := func() {
		if terminal++; terminal == len(tasks) {
			c.finish()
		}
	}
	c.master.OnComplete(func(r wq.Result) {
		i, err := strconv.Atoi(r.Task.Tag)
		if err != nil || i < 0 || i >= len(tasks) {
			panic(fmt.Sprintf("stream-day: unexpected task tag %q", r.Task.Tag))
		}
		tr.begin("harness.on_complete")
		sojourns = append(sojourns, r.Task.FinishedAt.Sub(start.Add(tasks[i].At)))
		outcome()
		tr.end()
	})
	c.master.OnTaskFailed(func(wq.Task) { outcome() })
	c.master.OnRejected(func(wq.Task) { outcome() })
	calls := 0
	for i, tt := range tasks {
		spec := tt.Spec
		spec.Tag = strconv.Itoa(i)
		arrive := func() { c.auto.Submit(spec) }
		if tr.on {
			arrive = func() {
				calls++
				tr.begin("wq.submit")
				c.auto.Submit(spec)
				tr.end()
			}
		}
		c.eng.At(start.Add(tt.At), "stream-arrival", arrive)
	}
	prep.layer = func(out map[string]float64, tot map[string]spanTotals) {
		out["wq.submit_calls"] = float64(calls)
	}
	return prep, nil
}
