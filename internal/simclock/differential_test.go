package simclock

import (
	"fmt"
	"testing"
	"time"
)

// The differential suite pins the int64 timing-wheel engine to the
// retained reference core (reference.go): both run an identical
// seeded multi-component scenario — dispatch-style zero-delay
// cascades, k-event completion waves at one instant, timer churn
// with cancellation, periodic controllers with Reset/Stop — and the
// firing logs must match event for event: same callback, same virtual
// time, same order, same Stop results, same Processed/Pending
// accounting. This is the house discipline from the kubesim and
// netsim rewrites; the scenario shapes mirror the real components'
// scheduling patterns.

// fireEntry is one observed firing: which logical callback ran and at
// what elapsed virtual time.
type fireEntry struct {
	id int64
	at time.Duration
}

// scenarioResult captures everything the comparison asserts on.
type scenarioResult struct {
	fires     []fireEntry
	stops     []bool // Timer.Stop return values, in stop order
	processed uint64
	pending   int
	elapsed   time.Duration
}

// runScenario drives a seeded multi-component workload on the given
// engine. The RNG is consumed inside callbacks as well as outside, so
// any ordering divergence between engines desynchronizes the streams
// and shows up as a log mismatch within a few events.
func runScenario(e *Engine, seed int64, rounds int) scenarioResult {
	rng := NewRNG(seed)
	var res scenarioResult
	var nextID int64

	record := func() (int64, func()) {
		nextID++
		id := nextID
		return id, func() {
			res.fires = append(res.fires, fireEntry{id: id, at: e.Elapsed()})
		}
	}

	// live holds cancellable timers; a fraction get stopped later —
	// some before firing, some after (Stop must report false then).
	var live []Timer

	dur := func() time.Duration {
		// Heavy mass at zero and small offsets: the clamped-past and
		// same-instant cases are where the same-instant queue works.
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return time.Duration(rng.Intn(3)) * time.Nanosecond
		default:
			return time.Duration(rng.Intn(5000)) * time.Millisecond
		}
	}

	// spawn schedules one random unit of work; callbacks re-enter it
	// (bounded by depth) to model dispatch cascades that schedule
	// more work from inside events.
	var spawn func(depth int)
	spawn = func(depth int) {
		switch rng.Intn(10) {
		case 0, 1, 2:
			_, fn := record()
			e.After(dur(), "single", fn)
		case 3, 4:
			id, fn := record()
			_ = id
			inner := fn
			d := dur()
			e.After(d, "cascade", func() {
				inner()
				if depth < 3 {
					spawn(depth + 1)
				}
			})
		case 5:
			// A wave of distinct callbacks at one drawn delay, like a
			// netsim completion wave.
			k := 1 + rng.Intn(6)
			d := dur()
			for i := 0; i < k; i++ {
				_, fn := record()
				e.After(d, "wave", fn)
			}
		case 6:
			// One callback k times at one drawn delay, like a kubesim
			// provisioning wave; the log records each firing.
			k := 1 + rng.Intn(6)
			_, fn := record()
			d := dur()
			for i := 0; i < k; i++ {
				e.After(d, "waveN", fn)
			}
		case 7:
			// Schedule then immediately cancel: must never fire.
			_, fn := record()
			t := e.After(dur(), "stopped", fn)
			res.stops = append(res.stops, t.Stop())
		case 8:
			_, fn := record()
			live = append(live, e.After(dur(), "maybe-stop", fn))
		case 9:
			// Zero-delay burst at the current instant.
			k := 1 + rng.Intn(4)
			for i := 0; i < k; i++ {
				_, fn := record()
				e.After(0, "burst", fn)
			}
		}
	}

	// Periodic controllers: one ticker self-stops, one resets its
	// period mid-run, one runs to the end and is stopped outside.
	tick1Fires := 0
	_, t1fn := record()
	var tk1 *Ticker
	tk1 = e.Every(700*time.Millisecond, "tick-selfstop", func() {
		t1fn()
		tick1Fires++
		if tick1Fires == 5 {
			tk1.Stop()
		}
	})
	_, t2fn := record()
	tk2 := e.Every(1100*time.Millisecond, "tick-reset", t2fn)
	_, t3fn := record()
	tk3 := e.Every(1900*time.Millisecond, "tick-outer", t3fn)

	for i := 0; i < rounds; i++ {
		spawn(0)
		if i%5 == 2 && len(live) > 0 {
			pick := rng.Intn(len(live))
			res.stops = append(res.stops, live[pick].Stop())
			live[pick] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i%7 == 3 {
			e.RunFor(time.Duration(rng.Intn(2000)) * time.Millisecond)
		}
		if i == rounds/2 {
			tk2.Reset(400 * time.Millisecond)
		}
	}
	e.RunFor(20 * time.Second)
	tk2.Stop()
	tk3.Stop()
	// Stop the remaining live timers; most have fired (Stop false).
	for _, t := range live {
		res.stops = append(res.stops, t.Stop())
	}
	e.Run()

	res.processed = e.Processed()
	res.pending = e.Pending()
	res.elapsed = e.Elapsed()
	return res
}

// diffScenario runs the scenario on both engines and returns a
// description of the first divergence, or "" when identical.
func diffScenario(seed int64, rounds int) string {
	t0 := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	fast := runScenario(NewEngine(t0), seed, rounds)
	ref := runScenario(NewReferenceEngine(t0), seed, rounds)

	if len(fast.fires) != len(ref.fires) {
		return fmt.Sprintf("fired %d events, reference fired %d", len(fast.fires), len(ref.fires))
	}
	for i := range fast.fires {
		if fast.fires[i] != ref.fires[i] {
			return fmt.Sprintf("firing %d: engine %+v, reference %+v", i, fast.fires[i], ref.fires[i])
		}
	}
	if len(fast.stops) != len(ref.stops) {
		return fmt.Sprintf("recorded %d stops, reference %d", len(fast.stops), len(ref.stops))
	}
	for i := range fast.stops {
		if fast.stops[i] != ref.stops[i] {
			return fmt.Sprintf("stop %d: engine %v, reference %v", i, fast.stops[i], ref.stops[i])
		}
	}
	if fast.processed != ref.processed {
		return fmt.Sprintf("processed %d, reference %d", fast.processed, ref.processed)
	}
	if fast.pending != ref.pending {
		return fmt.Sprintf("pending %d, reference %d", fast.pending, ref.pending)
	}
	if fast.elapsed != ref.elapsed {
		return fmt.Sprintf("elapsed %v, reference %v", fast.elapsed, ref.elapsed)
	}
	return ""
}

// TestEngineDifferential pins the engine to the reference core over
// seeded multi-component runs.
func TestEngineDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if d := diffScenario(seed, 400); d != "" {
				t.Fatalf("engines diverged: %s", d)
			}
		})
	}
}

// TestEngineDifferentialDeep runs fewer seeds for longer, pushing
// queue reuse, slab recycling, and ticker churn through many instants.
func TestEngineDifferentialDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep differential skipped in -short")
	}
	for _, seed := range []int64{42, 1905} {
		if d := diffScenario(seed, 3000); d != "" {
			t.Fatalf("seed %d: engines diverged: %s", seed, d)
		}
	}
}

// FuzzEngineDifferential fuzzes the scenario seed and size. The
// committed corpus (testdata/fuzz/FuzzEngineDifferential) holds the
// calibration seeds; CI runs a bounded pass with the corpus as seeds.
func FuzzEngineDifferential(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(7), uint16(200))
	f.Add(int64(42), uint16(400))
	f.Add(int64(1905), uint16(123))
	f.Add(int64(-3), uint16(31))
	f.Fuzz(func(t *testing.T, seed int64, rounds uint16) {
		r := int(rounds)%500 + 1
		if d := diffScenario(seed, r); d != "" {
			t.Fatalf("seed %d rounds %d: engines diverged: %s", seed, r, d)
		}
	})
}
