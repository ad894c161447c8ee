package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"hta/internal/simclock"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// call is a transfer callback that runs the func() passed as its
// argument, so a test can give each transfer its own closure.
func call(a any) { a.(func())() }

func TestSingleTransferDuration(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 0) // 100 MB/s
	var doneAt time.Duration
	l.Start(1400, call, func() { doneAt = e.Elapsed() }) // 1.4 GB
	e.Run()
	if want := 14 * time.Second; doneAt != want {
		t.Errorf("transfer finished at %v, want %v", doneAt, want)
	}
	s := l.Stats()
	if !almost(s.DeliveredMB, 1400, 1e-6) {
		t.Errorf("delivered = %v", s.DeliveredMB)
	}
	if !almost(s.AvgBandwidth, 100, 1e-6) {
		t.Errorf("avg bandwidth = %v", s.AvgBandwidth)
	}
}

func TestFairShareTwoTransfers(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 0)
	var d1, d2 time.Duration
	l.Start(100, call, func() { d1 = e.Elapsed() })
	l.Start(100, call, func() { d2 = e.Elapsed() })
	e.Run()
	// Equal sizes started together share the link: each gets 50 MB/s,
	// both finish at 2 s.
	if d1 != 2*time.Second || d2 != 2*time.Second {
		t.Errorf("finish times %v %v, want 2s both", d1, d2)
	}
}

func TestProgressiveFilling(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 0)
	var small, big time.Duration
	l.Start(50, call, func() { small = e.Elapsed() })
	l.Start(150, call, func() { big = e.Elapsed() })
	e.Run()
	// Both at 50 MB/s: small done at 1 s (50 MB). Big has 100 MB left,
	// now alone at 100 MB/s: +1 s => 2 s total.
	if small != time.Second {
		t.Errorf("small finished at %v, want 1s", small)
	}
	if big != 2*time.Second {
		t.Errorf("big finished at %v, want 2s", big)
	}
}

func TestLateJoinerSlowsExisting(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 0)
	var first time.Duration
	l.Start(100, call, func() { first = e.Elapsed() })
	e.After(500*time.Millisecond, "join", func() {
		l.Start(1000, nil, nil)
	})
	e.RunUntil(t0.Add(10 * time.Second))
	// First moves 50 MB in 0.5 s, then shares: 50 MB at 50 MB/s = 1 s
	// more => 1.5 s.
	if first != 1500*time.Millisecond {
		t.Errorf("first finished at %v, want 1.5s", first)
	}
}

func TestPerTransferCap(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 1000, 100) // huge link, 100 MB/s per-transfer cap
	var d time.Duration
	l.Start(200, call, func() { d = e.Elapsed() })
	e.Run()
	if d != 2*time.Second {
		t.Errorf("capped transfer finished at %v, want 2s", d)
	}
}

func TestCapDoesNotExceedFairShare(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 80)
	var d1, d2 time.Duration
	l.Start(100, call, func() { d1 = e.Elapsed() })
	l.Start(100, call, func() { d2 = e.Elapsed() })
	e.Run()
	// Fair share 50 < cap 80, so both run at 50 MB/s.
	if d1 != 2*time.Second || d2 != 2*time.Second {
		t.Errorf("finish times %v %v, want 2s", d1, d2)
	}
}

func TestZeroSizeTransferCompletes(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 0)
	done := false
	l.Start(0, call, func() { done = true })
	e.Run()
	if !done {
		t.Error("zero-size transfer never completed")
	}
	if e.Elapsed() != 0 {
		t.Errorf("elapsed = %v, want 0", e.Elapsed())
	}
}

func TestCancel(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 0)
	done := false
	tr := l.Start(100, call, func() { done = true })
	var other time.Duration
	l.Start(100, call, func() { other = e.Elapsed() })
	e.After(time.Second, "cancel", func() {
		if !l.Cancel(tr) {
			t.Error("Cancel reported inactive")
		}
		if l.Cancel(tr) {
			t.Error("second Cancel reported active")
		}
	})
	e.Run()
	if done {
		t.Error("canceled transfer invoked callback")
	}
	// Other: 50 MB in first second (shared), then alone at 100 MB/s
	// for remaining 50 MB => 1.5 s.
	if other != 1500*time.Millisecond {
		t.Errorf("other finished at %v, want 1.5s", other)
	}
}

func TestRemainingAndRate(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 0)
	tr := l.Start(100, nil, nil)
	e.After(500*time.Millisecond, "check", func() {
		if got := l.Remaining(tr); !almost(got, 50, 1e-6) {
			t.Errorf("Remaining = %v, want 50", got)
		}
		if got := l.vtRate; !almost(got, 100, 1e-6) {
			t.Errorf("rate = %v, want 100", got)
		}
	})
	e.Run()
}

func TestStatsBusyTime(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 0)
	l.Start(100, nil, nil) // 1 s
	e.After(10*time.Second, "second", func() {
		l.Start(200, nil, nil) // 2 s
	})
	e.Run()
	s := l.Stats()
	if want := 3 * time.Second; s.BusyTime != want {
		t.Errorf("BusyTime = %v, want %v", s.BusyTime, want)
	}
	if !almost(s.AvgBandwidth, 100, 1e-6) {
		t.Errorf("AvgBandwidth = %v, want 100", s.AvgBandwidth)
	}
	if s.Started != 2 || s.Completed != 2 {
		t.Errorf("Started/Completed = %d/%d", s.Started, s.Completed)
	}
}

func TestManySimultaneousEqualTransfers(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 150, 0)
	n := 15
	finished := 0
	for i := 0; i < n; i++ {
		l.Start(10, call, func() { finished++ })
	}
	e.Run()
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
	// 15 transfers × 10 MB at 10 MB/s each => 1 s.
	if e.Elapsed() != time.Second {
		t.Errorf("elapsed = %v, want 1s", e.Elapsed())
	}
}

func TestInvalidConstruction(t *testing.T) {
	e := simclock.NewEngine(t0)
	for _, f := range []func(){
		func() { NewLink(e, 0, 0) },
		func() { NewLink(e, -1, 0) },
		func() { NewLink(e, 1, -1) },
		func() { NewLink(e, 100, 0).Start(-1, nil, nil) },
		func() { NewLink(e, 100, 0).Start(math.NaN(), nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: conservation — total delivered equals the sum of
// completed transfer sizes, and total time >= sum(sizes)/capacity
// (the link can never beat its capacity).
func TestPropertyConservation(t *testing.T) {
	f := func(sizes []uint16, gaps []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 50 {
			sizes = sizes[:50]
		}
		e := simclock.NewEngine(t0)
		l := NewLink(e, 100, 0)
		var total float64
		at := t0
		for i, sz := range sizes {
			szMB := float64(sz%2000) + 1
			total += szMB
			gap := time.Duration(0)
			if i < len(gaps) {
				gap = time.Duration(gaps[i]) * time.Millisecond
			}
			at = at.Add(gap)
			sz := szMB
			e.At(at, "start", func() { l.Start(sz, nil, nil) })
		}
		e.Run()
		s := l.Stats()
		if !almost(s.DeliveredMB, total, 1e-3) {
			return false
		}
		minBusy := total / 100 // seconds at full capacity
		if s.BusyTime.Seconds() < minBusy-1e-6 {
			return false
		}
		// Average bandwidth can never exceed capacity.
		return s.AvgBandwidth <= 100+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with a per-transfer cap, a lone transfer of size S takes
// exactly S/min(cap, capacity) seconds.
func TestPropertyCapExactDuration(t *testing.T) {
	f := func(szRaw, capRaw uint16) bool {
		size := float64(szRaw%5000) + 1
		cap := float64(capRaw%500) + 1
		e := simclock.NewEngine(t0)
		l := NewLink(e, 250, cap)
		var doneAt time.Duration
		l.Start(size, call, func() { doneAt = e.Elapsed() })
		e.Run()
		eff := math.Min(cap, 250)
		want := size / eff
		return almost(doneAt.Seconds(), want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestContentionReducesAggregate(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 100, 0)
	l.SetContention(0.9)
	// Two concurrent transfers: aggregate = 100 × 0.9 = 90 MB/s,
	// 45 MB/s each; 90 MB each finishes in 2 s.
	var d1, d2 time.Duration
	l.Start(90, call, func() { d1 = e.Elapsed() })
	l.Start(90, call, func() { d2 = e.Elapsed() })
	e.Run()
	if d1 != 2*time.Second || d2 != 2*time.Second {
		t.Errorf("finish times %v %v, want 2s both", d1, d2)
	}
	// A single transfer still gets full capacity (starts at the
	// current virtual time, 2 s).
	var d3 time.Duration
	l.Start(100, call, func() { d3 = e.Elapsed() })
	e.Run()
	if d3 != 3*time.Second {
		t.Errorf("lone transfer finished at %v, want 3s (1s duration)", d3)
	}
}

func TestContentionMoreStreamsLowerBandwidth(t *testing.T) {
	run := func(n int) float64 {
		e := simclock.NewEngine(t0)
		l := NewLink(e, 600, 0)
		l.SetContention(0.96)
		for i := 0; i < n; i++ {
			l.Start(1400, nil, nil)
		}
		e.Run()
		return l.Stats().AvgBandwidth
	}
	few, many := run(5), run(15)
	if many >= few {
		t.Errorf("bandwidth with 15 streams (%v) should be below 5 streams (%v)", many, few)
	}
}

func TestSetContentionValidation(t *testing.T) {
	e := simclock.NewEngine(t0)
	for _, f := range []float64{0, -1, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("factor %v: expected panic", f)
				}
			}()
			NewLink(e, 100, 0).SetContention(f)
		}()
	}
}

// forBothImpls runs a test against the indexed and the retained
// reference implementation.
func forBothImpls(t *testing.T, fn func(t *testing.T, mk func(*simclock.Engine, float64, float64) *Link)) {
	t.Run("indexed", func(t *testing.T) { fn(t, NewLink) })
	t.Run("reference", func(t *testing.T) { fn(t, NewReferenceLink) })
}

// TestReadsDoNotChurnTimers is the regression test for the read-path
// fix: Remaining and Stats used to stop and re-arm the completion
// timer (and re-rate every transfer) on a pure read. Reads must not
// schedule anything, and completions must still fire correctly after
// a burst of reads.
func TestReadsDoNotChurnTimers(t *testing.T) {
	forBothImpls(t, func(t *testing.T, mk func(*simclock.Engine, float64, float64) *Link) {
		e := simclock.NewEngine(t0)
		l := mk(e, 90, 0)
		var done []int
		trs := []Transfer{
			l.Start(100, call, func() { done = append(done, 0) }),
			l.Start(200, call, func() { done = append(done, 1) }),
			l.Start(300, call, func() { done = append(done, 2) }),
		}
		e.RunFor(time.Second)
		before := e.Scheduled()
		for i := 0; i < 100; i++ {
			for _, tr := range trs {
				l.Remaining(tr)
			}
			l.Stats()
		}
		if after := e.Scheduled(); after != before {
			t.Fatalf("reads scheduled %d events", after-before)
		}
		if l.Active() != 3 {
			t.Fatalf("reads changed active set: %d", l.Active())
		}
		// Advance partway and read again mid-flight.
		e.RunFor(2 * time.Second)
		mid := e.Scheduled()
		s := l.Stats()
		if !almost(s.DeliveredMB, 90*3, 1e-6) {
			t.Fatalf("delivered after 3s = %v, want 270", s.DeliveredMB)
		}
		if e.Scheduled() != mid {
			t.Fatalf("Stats scheduled events")
		}
		e.Run()
		if want := []int{0, 1, 2}; len(done) != 3 || done[0] != want[0] || done[1] != want[1] || done[2] != want[2] {
			t.Fatalf("completions after read burst = %v, want %v", done, want)
		}
		if got := l.Stats().Completed; got != 3 {
			t.Fatalf("completed = %d", got)
		}
	})
}

// TestCompletionBatchOrderedByID pins the deterministic by-id
// callback order for batches of simultaneous completions (now
// produced by sort.Slice rather than an O(k²) bubble sort).
func TestCompletionBatchOrderedByID(t *testing.T) {
	forBothImpls(t, func(t *testing.T, mk func(*simclock.Engine, float64, float64) *Link) {
		e := simclock.NewEngine(t0)
		l := mk(e, 640, 0)
		var order []int
		const n = 64
		for i := 0; i < n; i++ {
			i := i
			l.Start(10, call, func() { order = append(order, i) })
		}
		e.Run()
		if len(order) != n {
			t.Fatalf("completions = %d, want %d", len(order), n)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("completion %d was transfer %d; want ascending start order", i, got)
			}
		}
	})
}

// TestReferenceBasics exercises the retained implementation's core
// behaviours directly (the differential suite covers the rest).
func TestReferenceBasics(t *testing.T) {
	e := simclock.NewEngine(t0)
	l := NewReferenceLink(e, 100, 0)
	var d1, d2 time.Duration
	l.Start(100, call, func() { d1 = e.Elapsed() })
	l.Start(100, call, func() { d2 = e.Elapsed() })
	e.Run()
	if d1 != d2 || d1 != 2*time.Second {
		t.Errorf("fair-share durations %v, %v; want both 2s", d1, d2)
	}

	e = simclock.NewEngine(t0)
	l = NewReferenceLink(e, 100, 10) // cap binds: 10 MB/s each
	var capped time.Duration
	l.Start(50, call, func() { capped = e.Elapsed() })
	l.Start(50, nil, nil)
	e.Run()
	if capped != 5*time.Second {
		t.Errorf("capped duration %v, want 5s", capped)
	}

	e = simclock.NewEngine(t0)
	l = NewReferenceLink(e, 100, 0)
	fired := false
	tr := l.Start(100, call, func() { fired = true })
	other := l.Start(100, nil, nil)
	e.RunFor(time.Second)
	if !l.Cancel(tr) {
		t.Fatal("cancel reported inactive")
	}
	if l.Cancel(tr) {
		t.Fatal("second cancel succeeded")
	}
	e.Run()
	if fired {
		t.Error("canceled transfer ran its callback")
	}
	if rem := l.Remaining(other); rem != 0 {
		t.Errorf("surviving transfer remaining = %v", rem)
	}
	if got := l.Stats().Completed; got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

// TestCompleteBatchAllocs pins the sort.Slice → slices.SortFunc
// conversion in the completion hot path: sorting a completion wave and
// releasing its slots must not allocate. The closure-over-slice
// sort.Slice form boxed the slice header and interface value, costing
// two allocations per wave.
func TestCompleteBatchAllocs(t *testing.T) {
	eng := simclock.NewEngine(t0)
	l := NewLink(eng, 1000, 0)
	const wave = 256
	batch := make([]int32, 0, wave)
	fill := func() {
		batch = batch[:0]
		for i := 0; i < wave; i++ {
			idx := l.alloc()
			// Adversarial order: descending ids force real sort work.
			l.trs[idx].id = wave - i
			batch = append(batch, idx)
		}
	}
	fill()
	l.completeBatch(batch) // warm the slab and the free list
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		l.completeBatch(batch)
	})
	if allocs != 0 {
		t.Fatalf("completeBatch allocates %.1f times per wave, want 0", allocs)
	}
	for i := 1; i < wave; i++ {
		if a, b := l.trs[batch[i-1]].id, l.trs[batch[i]].id; a >= b {
			t.Fatalf("batch not sorted ascending by id at %d: %d, %d", i, a, b)
		}
	}
	if len(l.free) != wave || len(l.trs) != wave {
		t.Fatalf("%d of %d slots free after the wave, want all %d", len(l.free), len(l.trs), wave)
	}
}

// TestTransferLifecycleAllocs pins the cost of one transfer's whole
// life on an idle link — Start, the completion timer, the done
// callback — at zero: the transfer is a recycled slab slot behind a
// value handle, the completion timer's callback is bound once per
// Link, the done callback is bound once by the caller and takes a
// pointer argument, and the engine's event records and the heap are
// recycled.
func TestTransferLifecycleAllocs(t *testing.T) {
	eng := simclock.NewEngine(t0)
	l := NewLink(eng, 1000, 0)
	done := 0
	onDone := func(a any) { *a.(*int)++ }
	lifecycle := func() {
		l.Start(10, onDone, &done)
		eng.Run()
	}
	lifecycle()
	allocs := testing.AllocsPerRun(100, lifecycle)
	if done != 102 {
		t.Fatalf("%d transfers completed, want 102", done)
	}
	if allocs != 0 {
		t.Errorf("one transfer lifecycle allocates %.0f times, want 0", allocs)
	}
}

// TestStaleTransferHandle holds handles past their transfers: after a
// completion, and after a cancel whose slot a newer transfer took
// over, Cancel reports false and Remaining 0, and neither touches the
// newer transfer.
func TestStaleTransferHandle(t *testing.T) {
	forBothImpls(t, func(t *testing.T, mk func(*simclock.Engine, float64, float64) *Link) {
		e := simclock.NewEngine(t0)
		l := mk(e, 100, 0)
		if l.Cancel(Transfer{}) || l.Remaining(Transfer{}) != 0 {
			t.Fatal("the zero handle names a transfer")
		}

		done := l.Start(100, nil, nil)
		e.Run() // completes at 1 s
		if l.Cancel(done) {
			t.Fatal("Cancel after completion reported an active transfer")
		}
		var reusedAt time.Duration
		reused := l.Start(100, call, func() { reusedAt = e.Elapsed() })
		if reused.idx != done.idx {
			t.Fatalf("slot %d not reused (new slot %d)", done.idx, reused.idx)
		}
		if l.Cancel(done) || l.Remaining(done) != 0 {
			t.Fatal("the completed transfer's handle reached its successor")
		}
		if l.Active() != 1 || !almost(l.Remaining(reused), 100, 1e-9) {
			t.Fatalf("successor disturbed: active %d, remaining %v", l.Active(), l.Remaining(reused))
		}
		e.Run()
		if reusedAt != 2*time.Second {
			t.Fatalf("successor finished at %v, want 2s", reusedAt)
		}

		canceled := l.Start(100, nil, nil)
		e.RunFor(500 * time.Millisecond)
		if !l.Cancel(canceled) {
			t.Fatal("Cancel of an active transfer reported false")
		}
		var nextAt time.Duration
		next := l.Start(50, call, func() { nextAt = e.Elapsed() })
		if next.idx != canceled.idx {
			t.Fatalf("slot %d not reused (new slot %d)", canceled.idx, next.idx)
		}
		if l.Cancel(canceled) || l.Remaining(canceled) != 0 {
			t.Fatal("the canceled transfer's handle reached its successor")
		}
		e.Run()
		if nextAt != 3*time.Second {
			t.Fatalf("successor finished at %v, want 3s", nextAt)
		}
		if s := l.Stats(); s.Started != 4 || s.Completed != 3 {
			t.Fatalf("started/completed = %d/%d, want 4/3", s.Started, s.Completed)
		}
	})
}
