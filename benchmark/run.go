package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"hta/internal/wq"
)

// Rep counts. One warm-up rep per process is discarded: the first rep
// in a fresh process pays for page faults on a heap the later reps
// reuse (dispatch-storm: 4.2 s cold against 2.6 s warm). Timed reps
// then run until their timed regions add up to the -seconds budget. A
// traced run spends its time on the traced rep instead and keeps two
// timed reps to measure the tracing overhead against.
const (
	minTimedReps    = 3
	maxTimedReps    = 7
	tracedTimedReps = 2
	// A run tops its set-up samples up to maxSetupSamples, spending at
	// most setupTopUp on it: the median of a 2 ms or 60 ms set-up
	// should not rest on the handful the reps provide, and a 0.75 s
	// set-up repeats well enough from those.
	maxSetupSamples = 50
	setupTopUp      = time.Second
)

// moreSetups tops have up with set-ups that are only timed, not run.
// Like a rep's, each starts on a collected heap.
func moreSetups(have []float64, once func() (time.Duration, error)) ([]float64, error) {
	for spent := time.Duration(0); len(have) < maxSetupSamples && spent < setupTopUp; {
		runtime.GC()
		d, err := once()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		have = append(have, d.Seconds())
		spent += d
	}
	return have, nil
}

// sizes holds every workload's parameters; tests shrink them.
type sizes struct {
	storm    stormParams
	workflow workflowParams
	io       ioParams
	stream   streamParams
	tcp      tcpParams
}

func fullSizes() sizes {
	procs := min(runtime.NumCPU(), 2)
	return sizes{
		storm:    stormParams{workers: 100_000, tasks: 1_000_000},
		workflow: workflowParams{stages: 10, width: 10_000, quotaNodes: 2000},
		io:       ioParams{workers: 10_000},
		stream: streamParams{
			rate:       25,
			quotaNodes: 1000,
			admission:  wq.AdmissionPolicy{MaxWaiting: 7500, BufferDepth: 1500},
		},
		tcp: tcpParams{workers: procs, bagTasks: 5000, rttTasks: 4000},
	}
}

func (s sizes) sim(name string) simWorkload {
	switch name {
	case "dispatch-storm":
		return s.storm
	case "workflow-hta":
		return s.workflow
	case "io-fleet":
		return s.io
	case "stream-day":
		return s.stream
	}
	return nil
}

// record is everything one run of one workload measured; -out appends
// it to a file and -compare reads it back.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Traced     bool   `json:"traced"`
	// Reps is the number of timed reps behind each timing's median.
	Reps      int  `json:"reps"`
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// EndToEnd holds, per end-to-end metric that applies to the
	// workload, one value per timed rep (a simulated metric repeats
	// exactly, so it holds one).
	EndToEnd map[string][]float64 `json:"end_to_end"`
	// PerLayer holds the traced rep's metrics.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

func (r *record) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func newRecord(workload string, seed int64, traced bool) *record {
	return &record{
		Workload:   workload,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Traced:     traced,
		Correct:    true,
		EndToEnd:   make(map[string][]float64),
	}
}

// timedReps is how many timed reps the run makes, given what the first
// warm one took: enough to fill the -seconds budget.
func (o options) timedReps(firstWallS float64) int {
	if o.trace {
		return tracedTimedReps
	}
	n := int(o.seconds/firstWallS) + 1
	return max(minTimedReps, min(maxTimedReps, n))
}

// addHost records the host-time metrics of the timed reps. The memory
// metrics are the simulated workloads': tcp-loopback's heap is the 4 MB
// the garbage collector starts at, and says nothing.
func (r *record) addHost(reps []rep, memory bool) {
	r.Reps = len(reps)
	for _, p := range reps {
		r.EndToEnd["tasks_per_s"] = append(r.EndToEnd["tasks_per_s"], p.tasksPerS())
		r.EndToEnd["setup_s"] = append(r.EndToEnd["setup_s"], p.setupS)
		if memory {
			r.EndToEnd["peak_heap_mb"] = append(r.EndToEnd["peak_heap_mb"], p.peakHeapMB)
			r.EndToEnd["allocs_per_task"] = append(r.EndToEnd["allocs_per_task"], p.allocsPerTask())
		}
	}
}

// harnessLayer fills the per-layer metrics that describe the run as a
// whole: the discarded cold rep, the spread of the timed reps, and what
// tracing cost.
func harnessLayer(layer map[string]float64, cold rep, timed []rep, traced rep) {
	walls := make([]float64, len(timed))
	for i, p := range timed {
		walls[i] = p.wallS
	}
	med := median(walls)
	layer["harness.cold_rep_s"] = cold.wallS
	layer["harness.rep_spread_pct"] = 100 * (slices.Max(walls) - slices.Min(walls)) / med
	layer["harness.trace_overhead_pct"] = 100 * (traced.wallS - med) / med
	layer["harness.total_alloc_mb"] = float64(traced.mem.allocBytes) / mb
	layer["harness.gc_cycles"] = float64(traced.mem.gcCycles)
	layer["harness.gc_pause_ms"] = ms(traced.mem.gcPause)
}

// runSim runs a simulated workload: warm-up, timed reps, and in a
// traced run one traced rep. Every rep must simulate exactly the same
// thing; a rep that differs makes the run incorrect.
func runSim(name string, w simWorkload, o options) (*record, *tracer, error) {
	rec := newRecord(name, o.seed, o.trace)
	off := newTracer(false)
	cold, err := simRep(w, o.seed, off)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up rep: %w", err)
	}
	want := cold.sim
	var timed []rep
	for n := 1; len(timed) < n; n = o.timedReps(timed[0].wallS) {
		p, err := simRep(w, o.seed, off)
		if err != nil {
			return nil, nil, fmt.Errorf("timed rep %d: %w", len(timed)+1, err)
		}
		if p.sim != want {
			rec.problem("timed rep %d simulated %+v, the warm-up rep %+v", len(timed)+1, p.sim, want)
		}
		timed = append(timed, p)
	}
	rec.addHost(timed, true)
	rec.EndToEnd["setup_s"], err = moreSetups(rec.EndToEnd["setup_s"], func() (time.Duration, error) {
		start := time.Now()
		p, err := w.setup(o.seed, off)
		d := time.Since(start)
		if err == nil {
			p.c.stop()
		}
		return d, err
	})
	if err != nil {
		return nil, nil, err
	}
	rec.Attempted = want.Submitted * len(timed)
	rec.Failed = want.failed() * len(timed)
	if err := want.check(); err != nil {
		rec.problem("%v", err)
	}
	rec.EndToEnd["failed_share"] = []float64{float64(want.failed()) / float64(want.Submitted)}
	rec.EndToEnd["sim_makespan_s"] = []float64{want.MakespanS}
	if cold.hasAccount {
		rec.EndToEnd["sim_waste_core_s"] = []float64{want.WasteCoreS}
		rec.EndToEnd["sim_shortage_core_s"] = []float64{want.ShortageCoreS}
	}
	if cold.hasSojourn {
		rec.EndToEnd["sim_sojourn_p50_s"] = []float64{want.SojournP50S}
		rec.EndToEnd["sim_sojourn_p999_s"] = []float64{want.SojournP999S}
	}
	if !o.trace {
		return rec, nil, nil
	}

	tr := newTracer(true)
	traced, err := simRep(w, o.seed, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced rep: %w", err)
	}
	if traced.sim != want {
		rec.problem("traced rep simulated %+v, the untraced reps %+v", traced.sim, want)
	}
	rec.PerLayer = traced.layer
	harnessLayer(rec.PerLayer, cold, timed, traced)
	return rec, tr, nil
}

// runTCP runs tcp-loopback: the bag phase under the same protocol as a
// simulated workload, then the closed-loop phase.
func runTCP(p tcpParams, o options) (*record, *tracer, error) {
	rec := newRecord(tcpLoopback, o.seed, o.trace)
	off := newTracer(false)
	cold, err := p.bagRep(off)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up rep: %w", err)
	}
	var timed []rep
	attempted, failed := 0, 0
	for n := 1; len(timed) < n; n = o.timedReps(timed[0].wallS) {
		b, err := p.bagRep(off)
		if err != nil {
			return nil, nil, fmt.Errorf("bag rep %d: %w", len(timed)+1, err)
		}
		attempted += p.bagTasks
		failed += b.failed
		timed = append(timed, b.rep)
	}
	rec.addHost(timed, false)
	rec.EndToEnd["setup_s"], err = moreSetups(rec.EndToEnd["setup_s"], func() (time.Duration, error) {
		start := time.Now()
		s, err := newTCPStack(p.workers)
		d := time.Since(start)
		if err == nil {
			s.close()
		}
		return d, err
	})
	if err != nil {
		return nil, nil, err
	}

	// The closed loop.
	var rtts []float64
	for i := 0; i < minTimedReps; i++ {
		rttMS, lost, err := p.rttRep()
		if err != nil {
			return nil, nil, fmt.Errorf("rtt rep %d: %w", i+1, err)
		}
		attempted += p.rttTasks
		failed += lost
		rtts = append(rtts, rttMS...)
		rec.EndToEnd["rtt_p50_ms"] = append(rec.EndToEnd["rtt_p50_ms"], median(rttMS))
	}

	var tr *tracer
	if o.trace {
		tr = newTracer(true)
		b, err := p.bagRep(tr)
		if err != nil {
			return nil, nil, fmt.Errorf("traced rep: %w", err)
		}
		attempted += p.bagTasks
		failed += b.failed
		rec.PerLayer = map[string]float64{
			"wire.bag_submit_s":  b.bagSubmit.Seconds(),
			"wire.submit_us_p50": median(b.submitUS),
			"wire.rtt_p99_ms":    quantile(rtts, 0.99),
			"wire.rtt_max_ms":    quantile(rtts, 1),
			"wire.rtt_samples":   float64(len(rtts)),
			"harness.spans":      float64(len(tr.spans)),
		}
		harnessLayer(rec.PerLayer, cold.rep, timed, b.rep)
	}
	rec.Attempted, rec.Failed = attempted, failed
	if failed > 0 {
		rec.problem("%d of %d tasks failed or never finished", failed, attempted)
	}
	rec.EndToEnd["failed_share"] = []float64{float64(failed) / float64(attempted)}
	if rec.PerLayer != nil {
		rec.PerLayer["wire.tasks_failed"] = float64(failed)
	}
	return rec, tr, nil
}
