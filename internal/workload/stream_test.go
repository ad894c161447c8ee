package workload

import (
	"math"
	"reflect"
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

// plainArrivals is Lewis thinning against one envelope for the whole
// window, every burst above 1 multiplied together, with the exact rate
// evaluated for every candidate. It is the oracle for arrivals: exact
// for burst-free streams, statistical for bursty ones.
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

// oddStream is DefaultStream with overlapping, nested, lull and
// negative-duration bursts — the edge cases of the segment cut.
func oddStream(seed int64) StreamParams {
	p := DefaultStream()
	p.Seed = seed
	p.Bursts = []Burst{
		{Start: 10 * time.Minute, Duration: 30 * time.Minute, Multiplier: 3},
		{Start: 20 * time.Minute, Duration: 5 * time.Minute, Multiplier: 0.5},
		{Start: 25 * time.Minute, Duration: -time.Minute, Multiplier: 9},
		{Start: 35 * time.Minute, Duration: 10 * time.Minute, Multiplier: 2},
	}
	return p
}

// times collects the arrival instants of p, with no draws between
// them.
func times(p StreamParams) []time.Duration {
	var out []time.Duration
	p.arrivals(p.segments(), simclock.NewRNG(p.Seed), func(at time.Duration) { out = append(out, at) })
	return out
}

// TestBurstFreeArrivalsMatchPlainThinning pins that a burst-free
// stream is one segment drawn exactly as the global-envelope loop
// draws it: the same candidates and the same accepted arrivals.
func TestBurstFreeArrivalsMatchPlainThinning(t *testing.T) {
	declared := DefaultStream()
	declared.Declared = true
	declared.Amplitude, declared.Period = 0, 0
	wf := StreamParams{Window: 2 * time.Hour, BasePerMin: 1, Category: "wf", Seed: 3}
	for name, p := range map[string]StreamParams{"default": DefaultStream(), "declared": declared, "workflow": wf} {
		if got, want := times(p), plainArrivals(p, simclock.NewRNG(p.Seed)); !slices.Equal(got, want) {
			t.Errorf("%s: %d arrivals, plain thinning %d", name, len(got), len(want))
		}
	}
}

// TestBurstsKeepPrefix pins what adding a burst window guarantees:
// before the first burst edge a bursty stream is the burst-free one,
// arrival by arrival and spec by spec.
func TestBurstsKeepPrefix(t *testing.T) {
	for name, p := range map[string]StreamParams{"bursty": burstyStream(2), "odd": oddStream(5), "day": DayTrace(4)} {
		flat := p
		flat.Bursts = nil
		edge := p.segments()[1].start
		got, want := p.Tasks(), flat.Tasks()
		n := 0
		for n < len(want) && want[n].At < edge {
			n++
		}
		if n == 0 || len(got) < n || !reflect.DeepEqual(got[:n], want[:n]) {
			t.Fatalf("%s: the first %d arrivals before %v differ from the burst-free stream", name, n, edge)
		}
		if len(got) > n && got[n].At < edge {
			t.Errorf("%s: extra arrival at %v before the first edge %v", name, got[n].At, edge)
		}
	}
}

// riemann is ∫rate over [from, to) as a midpoint sum of 1-second
// steps, in arrivals.
func riemann(p StreamParams, from, to time.Duration) float64 {
	n := 0.0
	for s := from; s < to; s += time.Second {
		mid := s + time.Second/2
		mod := 1.0
		if p.Period > 0 {
			mod = 1 + p.Amplitude*math.Sin(2*math.Pi*mid.Seconds()/p.Period.Seconds())
		}
		n += p.BasePerMin / 60 * mod * p.burstMult(mid)
	}
	return n
}

// TestSegmentMeanMatchesRiemannSum checks the closed-form ∫rate
// against a 1-second Riemann sum: over the whole window to 1e-6
// relative, and per segment within the midpoint rule's own error bound
// (length × h²/24 × max |d²rate/dt²|), which near the sinusoid's trough is
// looser than 1e-6 of the segment's small integral.
func TestSegmentMeanMatchesRiemannSum(t *testing.T) {
	for name, p := range map[string]StreamParams{
		"default": DefaultStream(), "bursty": burstyStream(1), "odd": oddStream(1), "day": DayTrace(1),
	} {
		segs := p.segments()
		if got, want := p.mean(segs), riemann(p, 0, p.Window); math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: mean %v, Riemann sum %v", name, got, want)
		}
		w := 2 * math.Pi / p.Period.Seconds()
		for _, s := range segs {
			got, want := p.mean([]segment{s}), riemann(p, s.start, s.end)
			bound := (s.end - s.start).Seconds() / 24 * p.BasePerMin / 60 * s.mult * p.Amplitude * w * w
			if math.Abs(got-want) > bound+1e-12*want {
				t.Errorf("%s: segment [%v, %v) mean %v, Riemann sum %v (bound %v)", name, s.start, s.end, got, want, bound)
			}
		}
	}
}

// TestSegmentedThinningMatchesRate: over 200 seeds of a two-hour
// bursty stream, the mean count in every 5-minute window sits within
// 4σ of ∫rate and of the global-envelope loop's mean count there.
func TestSegmentedThinningMatchesRate(t *testing.T) {
	const seeds, win = 200, 5 * time.Minute
	for name, mk := range map[string]func(int64) StreamParams{"bursty": burstyStream, "odd": oddStream} {
		p := mk(0)
		p.BasePerMin = 1 // bounds the global envelope's candidates
		bins := int(p.Window / win)
		got, plain := make([]float64, bins), make([]float64, bins)
		for seed := int64(1); seed <= seeds; seed++ {
			p.Seed = seed
			for _, at := range times(p) {
				got[at/win]++
			}
			for _, at := range plainArrivals(p, simclock.NewRNG(seed)) {
				plain[at/win]++
			}
		}
		for i := range bins {
			from := time.Duration(i) * win
			want := riemann(p, from, from+win)
			sigma := math.Sqrt(want / seeds)
			g, pl := got[i]/seeds, plain[i]/seeds
			if math.Abs(g-want) > 4*sigma {
				t.Errorf("%s window %v: mean count %.2f, ∫rate %.2f (σ %.2f)", name, from, g, want, sigma)
			}
			if math.Abs(g-pl) > 4*math.Sqrt2*sigma {
				t.Errorf("%s window %v: mean count %.2f, global envelope %.2f (σ %.2f)", name, from, g, pl, sigma)
			}
		}
	}
}

// TestStreamTasksAllocs pins Tasks' allocations: one command string
// per task plus a few fixed ones (the RNG's three, the segment table,
// and the presized slice, which the runtime may count twice when it is
// large). The slice, presized to ∫rate + 4σ, does not grow, and over
// DayTrace(1..20) at 25× the rate no stream exceeds that capacity.
func TestStreamTasksAllocs(t *testing.T) {
	const fixed = 8
	p := DayTrace(1)
	tasks := p.Tasks()
	if c := p.capacity(p.segments()); cap(tasks) != c {
		t.Errorf("Tasks grew its slice: cap %d, presized %d", cap(tasks), c)
	}
	if got, limit := testing.AllocsPerRun(5, func() { p.Tasks() }), float64(len(tasks)+fixed); got > limit {
		t.Errorf("Tasks allocates %v for %d arrivals, want at most %v", got, len(tasks), limit)
	}
	for seed := int64(1); seed <= 20; seed++ {
		p := DayTrace(seed)
		p.BasePerMin *= 25
		segs := p.segments()
		n := 0
		p.arrivals(segs, simclock.NewRNG(seed), func(time.Duration) { n++ })
		if c := p.capacity(segs); n > c {
			t.Errorf("DayTrace(%d)×25: %d arrivals exceed the presized %d", seed, n, c)
		}
	}
}
