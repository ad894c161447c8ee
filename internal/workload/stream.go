package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// TimedTask is a task together with its arrival offset from the start
// of the run — the open-loop submission model of a shared HTC
// facility, as opposed to the paper's all-at-once batch workflows.
type TimedTask struct {
	At   time.Duration
	Spec wq.TaskSpec
}

// Burst multiplies the arrival rate over one interval — a traffic
// spike (Multiplier > 1) or a lull (Multiplier < 1) layered on top of
// the diurnal sinusoid.
type Burst struct {
	Start      time.Duration
	Duration   time.Duration
	Multiplier float64
}

// StreamParams generates an inhomogeneous Poisson arrival stream
// whose rate follows a sinusoid with optional burst windows:
//
//	rate(t) = Base × (1 + Amplitude × sin(2πt/Period)) × burst(t)
//
// — the diurnal load pattern an elastic facility sees, plus the
// spikes that break naive per-cycle autoscaling.
type StreamParams struct {
	// Window is the submission window length.
	Window time.Duration
	// BasePerMin is the mean arrival rate in tasks per minute.
	BasePerMin float64
	// Amplitude in [0, 1) modulates the rate around the base.
	Amplitude float64
	// Period is the wavelength of the modulation.
	Period time.Duration
	// Bursts are rate-multiplier windows (empty = pure sinusoid; the
	// generated stream is then identical to pre-burst versions of
	// this package for the same seed).
	Bursts []Burst

	Category string
	Exec     time.Duration
	Jitter   float64
	CPUMilli int64
	MemMB    int64
	Declared bool
	Seed     int64
}

// burstMult returns the burst multiplier in effect at t.
func (p StreamParams) burstMult(t time.Duration) float64 {
	m := 1.0
	for _, b := range p.Bursts {
		if t >= b.Start && t < b.Start+b.Duration && b.Multiplier > 0 {
			m *= b.Multiplier
		}
	}
	return m
}

// DefaultStream returns a two-hour diurnal stream whose concurrency
// demand swings between ≈6 and ≈54 cores — inside a 20-node (60-core)
// quota, so a well-informed autoscaler can track the whole wave.
func DefaultStream() StreamParams {
	return StreamParams{
		Window:     2 * time.Hour,
		BasePerMin: 10,
		Amplitude:  0.8,
		Period:     30 * time.Minute,
		Category:   "stream",
		Exec:       3 * time.Minute,
		Jitter:     0.15,
		CPUMilli:   870,
		MemMB:      2048,
		Seed:       1,
	}
}

// segment is a stretch of the window that no burst edge cuts, so the
// burst multiplier is constant across [start, end).
type segment struct {
	start, end time.Duration
	mult       float64
}

// segments cuts [0, Window) at every burst edge inside it: every
// instant where burstMult can change. It returns nil for an empty
// stream and panics on an amplitude outside [0, 1).
func (p StreamParams) segments() []segment {
	if p.Window <= 0 || p.BasePerMin <= 0 {
		return nil
	}
	if p.Amplitude < 0 || p.Amplitude >= 1 {
		panic(fmt.Sprintf("workload: stream amplitude %v outside [0, 1)", p.Amplitude))
	}
	segs := make([]segment, 1, 1+2*len(p.Bursts))
	for _, b := range p.Bursts {
		if b.Multiplier <= 0 || b.Duration == 0 {
			continue
		}
		for _, e := range [2]time.Duration{b.Start, b.Start + b.Duration} {
			if e > 0 && e < p.Window {
				segs = append(segs, segment{start: e})
			}
		}
	}
	slices.SortFunc(segs, func(a, b segment) int { return cmp.Compare(a.start, b.start) })
	segs = slices.Compact(segs) // only start is set yet
	for i := range segs {
		segs[i].end = p.Window
		if i+1 < len(segs) {
			segs[i].end = segs[i+1].start
		}
		segs[i].mult = p.burstMult(segs[i].start)
	}
	return segs
}

// mean is the expected arrival count, ∫rate over the window: per
// segment, mult × base × ((b−a) + A/ω·(cos ωa − cos ωb)) in seconds,
// with ω = 2π/Period.
func (p StreamParams) mean(segs []segment) float64 {
	n := 0.0
	for _, s := range segs {
		a, b := s.start.Seconds(), s.end.Seconds()
		area := b - a
		if p.Period > 0 {
			w := 2 * math.Pi / p.Period.Seconds()
			area += p.Amplitude / w * (math.Cos(w*a) - math.Cos(w*b))
		}
		n += p.BasePerMin / 60 * s.mult * area
	}
	return n
}

// capacity sizes a slice for the stream's arrivals: the mean plus
// four standard deviations of the Poisson count.
func (p StreamParams) capacity(segs []segment) int {
	n := p.mean(segs)
	return int(n+4*math.Sqrt(n)) + 1
}

// arrivals runs Lewis thinning one segment at a time and calls emit,
// which may draw from rng, at each accepted arrival time in order.
// Each segment draws candidates at its own peak rate, the sinusoid's
// crest times its burst multiplier; a candidate past the segment's end
// restarts the draw at that edge, which exponential gaps allow
// (they are memoryless), so the output is exactly the inhomogeneous
// Poisson process rate(t). A burst-free stream is one segment whose
// peak and acceptance ratio are the global-envelope loop's, draw for
// draw.
func (p StreamParams) arrivals(segs []segment, rng *simclock.RNG, emit func(t time.Duration)) {
	for _, s := range segs {
		peak := p.BasePerMin * (1 + p.Amplitude) * s.mult / 60 // per second
		for t := s.start; ; {
			u := rng.Float64()
			if u == 0 {
				u = 1e-12
			}
			// Exponential inter-arrival at the segment's peak, compared
			// as a float before the conversion: a step past the edge
			// may not fit a Duration (a tiny base rate makes it +Inf).
			step := -math.Log(u) / peak * float64(time.Second)
			if step >= float64(s.end-t) {
				break
			}
			t += time.Duration(step)
			// Thinning: accept with probability rate(t)/peak.
			mod := 1.0
			if p.Period > 0 {
				mod = 1 + p.Amplitude*math.Sin(2*math.Pi*t.Seconds()/p.Period.Seconds())
			}
			if rng.Float64() > p.BasePerMin*mod*s.mult/60/peak {
				continue
			}
			emit(t)
		}
	}
}

// task is one task of the stream, its execution time drawn from rng.
func (p StreamParams) task(rng *simclock.RNG, tag, command string) wq.TaskSpec {
	spec := wq.TaskSpec{
		Tag:      tag,
		Command:  command,
		Category: p.Category,
		Profile: wq.Profile{
			ExecDuration: jitterDuration(rng, p.Exec, p.Jitter),
			UsedCPUMilli: p.CPUMilli,
			UsedMemoryMB: p.MemMB,
		},
	}
	if p.Declared {
		spec.Resources = resources.Vector{MilliCPU: 1000, MemoryMB: p.MemMB}
	}
	return spec
}

// Tasks generates the arrival stream (sorted by arrival time) via
// Poisson thinning, into a slice presized to the expected count.
func (p StreamParams) Tasks() []TimedTask {
	segs := p.segments()
	if segs == nil {
		return nil
	}
	rng := simclock.NewRNG(p.Seed)
	out := make([]TimedTask, 0, p.capacity(segs))
	p.arrivals(segs, rng, func(t time.Duration) {
		var buf [32]byte // one allocation per command: the string itself
		command := string(strconv.AppendInt(append(buf[:0], "stream-task "...), int64(len(out)), 10))
		out = append(out, TimedTask{At: t, Spec: p.task(rng, "", command)})
	})
	return out
}

// DayTrace is a trace-driven day: a 24-hour diurnal swing (quiet
// overnight, busy through the working day) with two morning spikes —
// the 9:00 login storm and a 9:40 aftershock — plus a smaller
// after-lunch bump. Roughly 6k task arrivals at the default rate.
func DayTrace(seed int64) StreamParams {
	return StreamParams{
		Window:     24 * time.Hour,
		BasePerMin: 4,
		Amplitude:  0.7,
		Period:     24 * time.Hour,
		Bursts: []Burst{
			{Start: 9 * time.Hour, Duration: 15 * time.Minute, Multiplier: 6},
			{Start: 9*time.Hour + 40*time.Minute, Duration: 10 * time.Minute, Multiplier: 4},
			{Start: 13*time.Hour + 30*time.Minute, Duration: 20 * time.Minute, Multiplier: 2},
		},
		Category: "day",
		Exec:     3 * time.Minute,
		Jitter:   0.15,
		CPUMilli: 870,
		MemMB:    2048,
		Seed:     seed,
	}
}

// TimedWorkflow is one workflow submission: a batch of tasks arriving
// together at At — a user handing a whole DAG stage to the facility,
// as opposed to TimedTask's independent arrivals.
type TimedWorkflow struct {
	At    time.Duration
	Name  string
	Tasks []wq.TaskSpec
}

// WorkflowStreamParams generates Poisson arrivals of workflow
// submissions: the Stream field drives the arrival process (its
// BasePerMin is workflows per minute), and each arrival expands into
// a batch of TasksPerWorkflow tasks (± SizeJitter).
type WorkflowStreamParams struct {
	Stream           StreamParams
	TasksPerWorkflow int
	// SizeJitter in [0, 1) varies the batch size uniformly by that
	// fraction around TasksPerWorkflow.
	SizeJitter float64
}

// Workflows generates the workflow arrival stream, sorted by arrival
// time and deterministic under the stream seed.
func (p WorkflowStreamParams) Workflows() []TimedWorkflow {
	sp := p.Stream
	if p.TasksPerWorkflow <= 0 {
		return nil
	}
	rng := simclock.NewRNG(sp.Seed)
	var out []TimedWorkflow
	sp.arrivals(sp.segments(), rng, func(t time.Duration) {
		n := p.TasksPerWorkflow
		if p.SizeJitter > 0 {
			span := float64(n) * p.SizeJitter
			n += int((2*rng.Float64() - 1) * span)
			if n < 1 {
				n = 1
			}
		}
		name := "wf-" + strconv.Itoa(len(out))
		tasks := make([]wq.TaskSpec, n)
		for i := range tasks {
			tasks[i] = sp.task(rng, name+"/t"+strconv.Itoa(i), name+" task "+strconv.Itoa(i))
		}
		out = append(out, TimedWorkflow{At: t, Name: name, Tasks: tasks})
	})
	return out
}

// Flatten expands workflow arrivals into per-task arrivals (every
// task of a workflow arrives at the workflow's submission time).
func Flatten(wfs []TimedWorkflow) []TimedTask {
	var out []TimedTask
	for _, wf := range wfs {
		for _, spec := range wf.Tasks {
			out = append(out, TimedTask{At: wf.At, Spec: spec})
		}
	}
	return out
}
