package simclock

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func TestAtRunsInTimeOrder(t *testing.T) {
	e := NewEngine(t0)
	var got []int
	e.At(t0.Add(3*time.Second), "c", func() { got = append(got, 3) })
	e.At(t0.Add(1*time.Second), "a", func() { got = append(got, 1) })
	e.At(t0.Add(2*time.Second), "b", func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Elapsed() != 3*time.Second {
		t.Errorf("Elapsed = %v, want 3s", e.Elapsed())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine(t0)
	var got []int
	at := t0.Add(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		e.At(at, "x", func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestPastEventClampedToNow(t *testing.T) {
	e := NewEngine(t0)
	e.At(t0.Add(10*time.Second), "advance", func() {
		fired := false
		e.At(t0.Add(5*time.Second), "past", func() { fired = true })
		// The past event must run at the current time, not rewind.
		e.Step()
		if !fired {
			t.Error("past event did not fire")
		}
		if !e.Now().Equal(t0.Add(10 * time.Second)) {
			t.Errorf("clock rewound to %v", e.Now())
		}
	})
	e.Run()
}

func TestNegativeAfterClamped(t *testing.T) {
	e := NewEngine(t0)
	fired := false
	e.After(-time.Hour, "neg", func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
	if !e.Now().Equal(t0) {
		t.Errorf("clock moved to %v", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(t0)
	fired := false
	tm := e.After(time.Second, "x", func() { fired = true })
	if !tm.Stop() {
		t.Error("first Stop should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Run", e.Pending())
	}
}

func TestStopAfterFireReportsFalse(t *testing.T) {
	e := NewEngine(t0)
	tm := e.After(time.Second, "x", func() {})
	e.Run()
	if tm.Stop() {
		t.Error("Stop after firing should report false")
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine(t0)
	var times []time.Duration
	tk := e.Every(10*time.Second, "tick", func() {
		times = append(times, e.Elapsed())
	})
	e.RunFor(35 * time.Second)
	tk.Stop()
	e.Run()
	want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine(t0)
	n := 0
	var tk *Ticker
	tk = e.Every(time.Second, "tick", func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

func TestTickerReset(t *testing.T) {
	e := NewEngine(t0)
	var times []time.Duration
	tk := e.Every(10*time.Second, "tick", func() {
		times = append(times, e.Elapsed())
	})
	e.RunFor(10 * time.Second) // first firing at 10s
	tk.Reset(5 * time.Second)  // next at 15s, 20s, ...
	e.RunFor(11 * time.Second) // until t=21s
	tk.Stop()
	e.Run()
	want := []time.Duration{10 * time.Second, 15 * time.Second, 20 * time.Second}
	if len(times) != len(want) {
		t.Fatalf("firings %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
}

// A Reset from the ticker's own callback replaces the pending firing
// rather than starting a second chain beside it.
func TestTickerResetInsideCallback(t *testing.T) {
	e := NewEngine(t0)
	var times []time.Duration
	var tk *Ticker
	tk = e.Every(time.Second, "tick", func() {
		times = append(times, e.Elapsed())
		if len(times) == 1 {
			tk.Reset(2 * time.Second)
		}
	})
	e.RunFor(11 * time.Second)
	tk.Stop()
	e.Run()
	var want []time.Duration
	for s := 1; s <= 11; s += 2 {
		want = append(want, time.Duration(s)*time.Second)
	}
	if !slices.Equal(times, want) {
		t.Fatalf("firings %v, want %v", times, want)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine(t0)
	fired := 0
	e.After(time.Second, "a", func() { fired++ })
	e.After(time.Hour, "b", func() { fired++ })
	e.RunUntil(t0.Add(time.Minute))
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if !e.Now().Equal(t0.Add(time.Minute)) {
		t.Errorf("Now = %v, want deadline", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Errorf("fired = %d after Run, want 2", fired)
	}
}

func TestRunWhile(t *testing.T) {
	e := NewEngine(t0)
	n := 0
	for i := 1; i <= 10; i++ {
		e.After(time.Duration(i)*time.Second, "x", func() { n++ })
	}
	e.RunWhile(func() bool { return n < 4 })
	if n != 4 {
		t.Errorf("n = %d, want 4", n)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(t0)
	var order []string
	e.After(time.Second, "outer", func() {
		order = append(order, "outer")
		e.After(time.Second, "inner", func() { order = append(order, "inner") })
	})
	e.Run()
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
	if e.Elapsed() != 2*time.Second {
		t.Errorf("Elapsed = %v, want 2s", e.Elapsed())
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	NewEngine(t0).After(time.Second, "nil", nil)
}

func TestNonPositiveTickerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	NewEngine(t0).Every(0, "bad", func() {})
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine(t0)
	for i := 0; i < 5; i++ {
		e.After(time.Duration(i)*time.Second, "x", func() {})
	}
	e.Run()
	if e.Processed() != 5 {
		t.Errorf("Processed = %d, want 5", e.Processed())
	}
}

// Property: for any set of offsets, events fire in non-decreasing
// time order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine(t0)
		var fireTimes []time.Time
		for _, off := range offsets {
			d := time.Duration(off) * time.Millisecond
			e.After(d, "p", func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		if len(fireTimes) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool {
			return fireTimes[i].Before(fireTimes[j])
		}) || isNonDecreasing(fireTimes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func isNonDecreasing(ts []time.Time) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i].Before(ts[i-1]) {
			return false
		}
	}
	return true
}

// Property: every scheduled event fires exactly once unless stopped.
func TestPropertyExactlyOnce(t *testing.T) {
	f := func(offsets []uint8, stopMask []bool) bool {
		e := NewEngine(t0)
		fired := make([]int, len(offsets))
		timers := make([]Timer, len(offsets))
		for i, off := range offsets {
			i := i
			timers[i] = e.After(time.Duration(off)*time.Second, "p", func() { fired[i]++ })
		}
		stopped := make([]bool, len(offsets))
		for i := range timers {
			if i < len(stopMask) && stopMask[i] {
				stopped[i] = timers[i].Stop()
			}
		}
		e.Run()
		for i := range fired {
			want := 1
			if stopped[i] {
				want = 0
			}
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestTruncNormalBounds(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := g.TruncNormal(157.4, 4.2, 100, 200)
		if v < 100 || v > 200 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestTruncNormalMoments(t *testing.T) {
	g := NewRNG(7)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.TruncNormal(157.4, 4.2, 0, 1000)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-157.4) > 0.5 {
		t.Errorf("mean = %.2f, want ≈157.4", mean)
	}
	if math.Abs(std-4.2) > 0.5 {
		t.Errorf("std = %.2f, want ≈4.2", std)
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Jitter(100, 0.2)
		if v < 80 || v > 120 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
	if g.Jitter(50, 0) != 50 {
		t.Error("zero-fraction jitter must be identity")
	}
}

// --- same-instant singles ---

// k singles scheduled back to back at one instant fire in schedule
// order, interleaved correctly with events scheduled before and after
// them.
func TestAtBatchFiresInSliceOrder(t *testing.T) {
	e := NewEngine(t0)
	var got []int
	e.After(time.Second, "before", func() { got = append(got, -1) })
	for i := 0; i < 5; i++ {
		e.At(t0.Add(time.Second), "single", func() { got = append(got, i) })
	}
	e.After(time.Second, "after", func() { got = append(got, 99) })
	e.Run()
	want := []int{-1, 0, 1, 2, 3, 4, 99}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Processed() != 7 {
		t.Errorf("Processed = %d, want 7", e.Processed())
	}
}

// RunWhile can stop between any two of k singles due at one instant;
// the rest stay pending and fire on the next Run.
func TestBatchRunWhileStopsMidBatch(t *testing.T) {
	e := NewEngine(t0)
	n := 0
	for i := 0; i < 10; i++ {
		e.After(time.Second, "single", func() { n++ })
	}
	e.RunWhile(func() bool { return n < 3 })
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
	e.Run()
	if n != 10 {
		t.Fatalf("n = %d after Run, want 10", n)
	}
}

// A wave of zero-delay singles scheduled from inside an event fires
// at the current instant, ahead of anything scheduled after it.
func TestBatchAtCurrentInstant(t *testing.T) {
	e := NewEngine(t0)
	var got []int
	e.After(time.Second, "outer", func() {
		e.After(0, "inner", func() { got = append(got, 1) })
		e.After(0, "inner", func() { got = append(got, 2) })
		e.After(0, "single-after", func() { got = append(got, 3) })
	})
	e.After(time.Second+1, "later", func() { got = append(got, 4) })
	e.Run()
	if !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("order = %v, want [1 2 3 4]", got)
	}
	if e.Elapsed() != time.Second+1 {
		t.Errorf("Elapsed = %v, want 1.000000001s", e.Elapsed())
	}
}

// The slab holds one record per pending event, hundreds of thousands
// in a dispatch storm: a record must stay within one 64-byte cache
// line.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(rec{}); n > 64 {
		t.Fatalf("rec is %d bytes, want <= 64", n)
	}
}

// A steady zero-delay cascade and a k-single same-instant fan-out
// reuse the slab, the free list and the same-instant queue: after a
// warm-up neither allocates.
func TestSameInstantZeroAlloc(t *testing.T) {
	e := NewEngine(t0)
	const k = 64
	depth := 0
	var cascade func()
	cascade = func() {
		if depth++; depth < 100 {
			e.After(0, "cascade", cascade)
		}
	}
	nop := func() {}
	fanOut := func() {
		for i := 0; i < k; i++ {
			e.After(0, "fan-out", nop)
		}
	}
	round := func() {
		depth = 0
		e.After(time.Millisecond, "cascade", cascade)
		e.After(2*time.Millisecond, "fan-out", fanOut)
		e.Run()
	}
	for i := 0; i < 10; i++ {
		round() // warm the slab, free list and queue
	}
	before := e.Processed()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("same-instant scheduling allocates %.1f objects per round, want 0", avg)
	}
	if got := e.Processed() - before; got != 101*(100+1+k) {
		t.Fatalf("processed %d events, want %d", got, 101*(100+1+k))
	}
}

// --- Pending counter ---

// Pending must stay exact through schedule/cancel/fire churn,
// including cancels of events already due at the executing instant
// (queued records drain lazily but are uncounted immediately).
func TestPendingExactUnderChurn(t *testing.T) {
	e := NewEngine(t0)
	rng := NewRNG(11)
	var live []Timer
	fired, stopped := 0, 0
	for i := 0; i < 5000; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			live = append(live, e.After(time.Duration(rng.Intn(50))*time.Millisecond, "x", func() { fired++ }))
		case 2:
			if len(live) > 0 {
				k := rng.Intn(len(live))
				if live[k].Stop() {
					stopped++
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case 3:
			e.RunFor(time.Duration(rng.Intn(20)) * time.Millisecond)
		}
		// Invariant after every operation: everything scheduled has
		// either fired, been stopped, or is still pending.
		if want := int(e.Scheduled()) - fired - stopped; e.Pending() != want {
			t.Fatalf("op %d: Pending = %d, want scheduled(%d) - fired(%d) - stopped(%d) = %d",
				i, e.Pending(), e.Scheduled(), fired, stopped, want)
		}
	}
	if fired == 0 || stopped == 0 || e.Pending() == 0 {
		t.Fatalf("scenario degenerate: fired=%d stopped=%d pending=%d", fired, stopped, e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

// Pending is a counter read, not a queue walk: 200k probes against a
// 100k-event queue must complete almost instantly. A linear scan
// would cost ~2e10 record visits and trip the bound by orders of
// magnitude.
func TestPendingConstantTime(t *testing.T) {
	e := NewEngine(t0)
	for i := 0; i < 100000; i++ {
		e.After(time.Duration(i)*time.Millisecond, "x", func() {})
	}
	start := time.Now()
	sum := 0
	for i := 0; i < 200000; i++ {
		sum += e.Pending()
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("200k Pending probes took %v (linear scan?)", d)
	}
	if sum != 200000*100000 {
		t.Fatalf("Pending drifted: sum = %d", sum)
	}
	e.Run()
}

// --- ticker allocation ---

// A steady ticker reuses one bound closure for every firing; the
// per-firing allocation profile must be zero.
func TestTickerFiringAllocs(t *testing.T) {
	e := NewEngine(t0)
	n := 0
	tk := e.Every(time.Second, "tick", func() { n++ })
	e.RunFor(10 * time.Second) // warm the slab and free list
	avg := testing.AllocsPerRun(100, func() {
		e.RunFor(time.Second)
	})
	tk.Stop()
	if avg != 0 {
		t.Fatalf("ticker firing allocates %.1f objects/firing, want 0", avg)
	}
	if n < 100 {
		t.Fatalf("ticker fired %d times", n)
	}
}

// --- reference engine API parity ---

func TestReferenceEngineBasics(t *testing.T) {
	e := NewReferenceEngine(t0)
	if !e.Reference() {
		t.Fatal("Reference() = false")
	}
	var got []int
	for i := 1; i <= 4; i++ {
		e.After(time.Second, "x", func() { got = append(got, i) })
	}
	tm := e.After(2*time.Second, "never", func() { got = append(got, 9) })
	if !tm.Stop() {
		t.Fatal("Stop = false")
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	e.Run()
	if !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
	if e.Elapsed() != time.Second {
		t.Errorf("Elapsed = %v", e.Elapsed())
	}
}
