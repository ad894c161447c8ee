package workload

import (
	"math"
	"slices"
	"testing"
	"time"

	"hta/internal/simclock"
)

// burstyStream is DefaultStream with two sharp spikes riding the
// sinusoid — the workload the admission guardrails and the panic
// fast path exist for.
func burstyStream(seed int64) StreamParams {
	p := DefaultStream()
	p.Seed = seed
	p.Bursts = []Burst{
		{Start: 20 * time.Minute, Duration: 5 * time.Minute, Multiplier: 5},
		{Start: 70 * time.Minute, Duration: 10 * time.Minute, Multiplier: 4},
	}
	return p
}

// TestBurstRaisesLocalRate: arrivals inside a 5x burst window are
// much denser than the same window without the burst.
func TestBurstRaisesLocalRate(t *testing.T) {
	base := DefaultStream()
	base.Amplitude = 0
	base.Period = 0
	burst := base
	burst.Bursts = []Burst{{Start: 30 * time.Minute, Duration: 10 * time.Minute, Multiplier: 5}}

	count := func(tasks []TimedTask, from, to time.Duration) int {
		n := 0
		for _, tt := range tasks {
			if tt.At >= from && tt.At < to {
				n++
			}
		}
		return n
	}
	inBurst := count(burst.Tasks(), 30*time.Minute, 40*time.Minute)
	outside := count(burst.Tasks(), 50*time.Minute, 60*time.Minute)
	// 10 min at 10/min = ~100 flat, ~500 inside the burst.
	if inBurst < 3*outside {
		t.Errorf("burst window %d arrivals vs %d outside; want >= 3x", inBurst, outside)
	}
	flat := count(base.Tasks(), 50*time.Minute, 60*time.Minute)
	if flat < 60 || flat > 160 {
		t.Errorf("flat window count = %d, want ~100", flat)
	}
}

// TestEmptyBurstsKeepStreamIdentical pins that adding the Bursts
// field did not change the generated stream for burst-free params:
// the thinning envelope and RNG draw order are untouched.
func TestEmptyBurstsKeepStreamIdentical(t *testing.T) {
	a := DefaultStream().Tasks()
	withEmpty := DefaultStream()
	withEmpty.Bursts = []Burst{}
	b := withEmpty.Tasks()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Spec.Profile != b[i].Spec.Profile {
			t.Fatalf("task %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestDayTraceShape: deterministic under seed, sorted, and the 9:00
// spike is visibly denser than the overnight trough.
func TestDayTraceShape(t *testing.T) {
	p := DayTrace(7)
	tasks := p.Tasks()
	again := DayTrace(7).Tasks()
	if len(tasks) != len(again) {
		t.Fatalf("nondeterministic: %d vs %d arrivals", len(tasks), len(again))
	}
	for i := range tasks {
		if tasks[i].At != again[i].At {
			t.Fatalf("arrival %d differs across runs", i)
		}
		if i > 0 && tasks[i].At < tasks[i-1].At {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
	count := func(from, to time.Duration) int {
		n := 0
		for _, tt := range tasks {
			if tt.At >= from && tt.At < to {
				n++
			}
		}
		return n
	}
	spike := count(9*time.Hour, 9*time.Hour+15*time.Minute)
	night := count(3*time.Hour, 3*time.Hour+15*time.Minute)
	if spike < 4*night {
		t.Errorf("morning spike %d vs overnight %d arrivals; want >= 4x", spike, night)
	}
	if len(tasks) < 3000 {
		t.Errorf("day trace has %d arrivals, want thousands", len(tasks))
	}
	if DayTrace(8).Tasks()[0].At == tasks[0].At {
		t.Error("different seeds produced the same first arrival")
	}
}

// TestWorkflowStream: batch arrivals are deterministic, sized around
// TasksPerWorkflow, and Flatten preserves order and count.
func TestWorkflowStream(t *testing.T) {
	p := WorkflowStreamParams{
		Stream: StreamParams{
			Window:     2 * time.Hour,
			BasePerMin: 1,
			Category:   "wf",
			Exec:       2 * time.Minute,
			Jitter:     0.1,
			CPUMilli:   870,
			MemMB:      1024,
			Seed:       3,
		},
		TasksPerWorkflow: 20,
		SizeJitter:       0.3,
	}
	wfs := p.Workflows()
	if len(wfs) < 60 || len(wfs) > 200 {
		t.Fatalf("workflows = %d, want ~120", len(wfs))
	}
	again := p.Workflows()
	total := 0
	for i, wf := range wfs {
		if len(wf.Tasks) < 14 || len(wf.Tasks) > 26 {
			t.Fatalf("workflow %d has %d tasks, want 20 +- 30%%", i, len(wf.Tasks))
		}
		if again[i].At != wf.At || len(again[i].Tasks) != len(wf.Tasks) {
			t.Fatalf("workflow %d not deterministic", i)
		}
		if i > 0 && wf.At < wfs[i-1].At {
			t.Fatalf("workflow arrivals not sorted at %d", i)
		}
		for j, spec := range wf.Tasks {
			if spec.Tag == "" || spec.Category != "wf" {
				t.Fatalf("workflow %d task %d spec malformed: %+v", i, j, spec)
			}
		}
		total += len(wf.Tasks)
	}
	flat := Flatten(wfs)
	if len(flat) != total {
		t.Fatalf("Flatten lost tasks: %d vs %d", len(flat), total)
	}
	for i := 1; i < len(flat); i++ {
		if flat[i].At < flat[i-1].At {
			t.Fatalf("flattened arrivals not sorted at %d", i)
		}
	}
}

// plainArrivals is Lewis thinning without the squeeze: every candidate
// evaluates the exact rate. It is the oracle for arrivals.
func plainArrivals(p StreamParams, rng *simclock.RNG) []time.Duration {
	maxBurst := 1.0
	for _, b := range p.Bursts {
		maxBurst *= max(b.Multiplier, 1)
	}
	maxRate := p.BasePerMin * (1 + p.Amplitude) * maxBurst / 60
	var out []time.Duration
	for t := time.Duration(0); ; {
		u := rng.Float64()
		if u == 0 {
			u = 1e-12
		}
		t += time.Duration(-math.Log(u) / maxRate * float64(time.Second))
		if t >= p.Window {
			return out
		}
		mod := 1.0
		if p.Period > 0 {
			mod = 1 + p.Amplitude*math.Sin(2*math.Pi*t.Seconds()/p.Period.Seconds())
		}
		if rng.Float64() > p.BasePerMin*mod*p.burstMult(t)/60/maxRate {
			continue
		}
		out = append(out, t)
	}
}

// TestArrivalsMatchPlainThinning pins that the squeeze only skips
// work: the accepted arrivals, and so every draw after them, are the
// plain thinning loop's, including with overlapping, nested, lull and
// empty bursts.
func TestArrivalsMatchPlainThinning(t *testing.T) {
	odd := DefaultStream()
	odd.Bursts = []Burst{
		{Start: 10 * time.Minute, Duration: 30 * time.Minute, Multiplier: 3},
		{Start: 20 * time.Minute, Duration: 5 * time.Minute, Multiplier: 0.5},
		{Start: 25 * time.Minute, Duration: -time.Minute, Multiplier: 9},
		{Start: 35 * time.Minute, Duration: 10 * time.Minute, Multiplier: 2},
	}
	for name, p := range map[string]StreamParams{
		"default": DefaultStream(), "bursty": burstyStream(2), "day": DayTrace(4), "odd": odd,
	} {
		var got []time.Duration
		p.arrivals(simclock.NewRNG(p.Seed), func(at time.Duration) { got = append(got, at) })
		if want := plainArrivals(p, simclock.NewRNG(p.Seed)); !slices.Equal(got, want) {
			t.Errorf("%s: %d arrivals, plain thinning %d", name, len(got), len(want))
		}
	}
}
