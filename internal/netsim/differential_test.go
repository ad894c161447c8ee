package netsim

import (
	"math"
	"testing"
	"time"

	"hta/internal/simclock"
)

// This file proves the virtual-time link equivalent to the retained
// reference implementation: random interleavings of Start, Cancel,
// SetContention and reads are replayed against both,
// and the completion callbacks (order and times), cancel results and
// accumulated stats must agree. Callback order must match exactly;
// completion times get a drift budget with two terms. The fixed term
// is one nanosecond per completion: the reference accumulates
// remaining-MB incrementally, so its eta carries sub-nanosecond float
// drift, and when the true eta sits within that drift of an exact
// nanosecond boundary the ceil-to-ns rounding can flip by one — every
// downstream event then shifts with it. The relative term is 1e-12 of
// the completion instant: at adversarially low rates (a 1 % contention
// factor compounded across many streams) an ulp of error in
// remaining-MB divides by the tiny rate into tens of nanoseconds of
// eta, so absolute drift scales with elapsed virtual time — a
// fuzz-found 18-simulated-hour run diverged by 40 ns, about 6e-13 of
// its runtime. 1e-12 (≈4500 ulp) bounds that mechanism with margin
// while still asserting sub-microsecond agreement per simulated
// fortnight.

const (
	opStart = iota
	opCancel
	opSetContention
	opRead
)

type linkOp struct {
	gap    time.Duration // delay after the previous op
	kind   int
	size   float64 // opStart
	target int     // opCancel: index into transfers started so far
	factor float64 // opSetContention
}

type completionRec struct {
	transfer int // start-order index
	at       time.Duration
}

type linkTrace struct {
	completions  []completionRec
	cancels      []bool
	reads        []float64 // Remaining samples
	stats        Stats
	end          time.Duration
	capacity     float64
	sumCompleted float64
	active       int
}

// driveLink replays ops against a fresh engine and link and records
// everything observable.
func driveLink(mk func(*simclock.Engine, float64, float64) *Link, capacity, perTransfer float64, ops []linkOp) linkTrace {
	e := simclock.NewEngine(t0)
	l := mk(e, capacity, perTransfer)
	tr := linkTrace{capacity: capacity}
	var started []*Transfer
	at := time.Duration(0)
	for i := range ops {
		op := ops[i]
		at += op.gap
		idx := len(tr.cancels) // stable slot for this op's cancel result
		if op.kind == opCancel {
			tr.cancels = append(tr.cancels, false)
		}
		e.At(t0.Add(at), "op", func() {
			switch op.kind {
			case opStart:
				n := len(started)
				t := l.Start(op.size, func() {
					tr.completions = append(tr.completions, completionRec{transfer: n, at: e.Elapsed()})
					tr.sumCompleted += op.size
				})
				started = append(started, t)
			case opCancel:
				if len(started) > 0 {
					tr.cancels[idx] = started[op.target%len(started)].Cancel()
				}
			case opSetContention:
				l.SetContention(op.factor)
			case opRead:
				if len(started) > 0 {
					tr.reads = append(tr.reads, started[len(started)/2].Remaining())
				}
				l.Stats()
			}
		})
	}
	e.Run()
	tr.stats = l.Stats()
	tr.end = e.Elapsed()
	tr.active = l.Active()
	return tr
}

func randomOps(seed int64, n int) []linkOp {
	rng := simclock.NewRNG(seed)
	ops := make([]linkOp, n)
	for i := range ops {
		op := &ops[i]
		// Continuous gaps and sizes land on "messy" (non-representable)
		// reals, keeping etas away from exact nanosecond boundaries so
		// both implementations round identically.
		op.gap = time.Duration(rng.Float64() * float64(500*time.Millisecond))
		switch k := rng.Intn(100); {
		case k < 55:
			op.kind = opStart
			op.size = rng.Float64()*400 + 0.001
			if rng.Intn(12) == 0 {
				op.size = 0
			}
		case k < 70:
			op.kind = opCancel
			op.target = rng.Intn(1 << 20)
		case k < 78:
			op.kind = opSetContention
			op.factor = 0.25 + 0.75*rng.Float64()
		case k < 86:
			op.kind = opSetContention
			op.factor = 0.9 + 0.1*rng.Float64()
		default:
			op.kind = opRead
		}
	}
	return ops
}

func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// compareTraces asserts the two traces agree: identical callback
// order, completion times within a drift budget (a fixed
// nanosecond-per-completion allowance for ceil-boundary flips plus
// 1e-12 of the completion instant for low-rate float amplification —
// see the file comment), and stats within float tolerance.
func compareTraces(t *testing.T, indexed, reference linkTrace, timeTol time.Duration) {
	t.Helper()
	if len(indexed.completions) != len(reference.completions) {
		t.Fatalf("completions: indexed %d, reference %d", len(indexed.completions), len(reference.completions))
	}
	fixed := timeTol * time.Duration(len(indexed.completions)+1)
	budgetAt := func(at time.Duration) time.Duration {
		return fixed + time.Duration(float64(at)*1e-12)
	}
	for i := range indexed.completions {
		ic, rc := indexed.completions[i], reference.completions[i]
		if ic.transfer != rc.transfer {
			t.Fatalf("completion %d order: indexed transfer %d, reference transfer %d", i, ic.transfer, rc.transfer)
		}
		budget := budgetAt(ic.at)
		if d := ic.at - rc.at; d < -budget || d > budget {
			t.Fatalf("completion %d (transfer %d): indexed %v, reference %v (budget %v)", i, ic.transfer, ic.at, rc.at, budget)
		}
	}
	if len(indexed.cancels) != len(reference.cancels) {
		t.Fatalf("cancel count: indexed %d, reference %d", len(indexed.cancels), len(reference.cancels))
	}
	for i := range indexed.cancels {
		if indexed.cancels[i] != reference.cancels[i] {
			t.Fatalf("cancel %d: indexed %v, reference %v", i, indexed.cancels[i], reference.cancels[i])
		}
	}
	if len(indexed.reads) != len(reference.reads) {
		t.Fatalf("read count: indexed %d, reference %d", len(indexed.reads), len(reference.reads))
	}
	for i := range indexed.reads {
		if !relClose(indexed.reads[i], reference.reads[i], 1e-6) {
			t.Fatalf("read %d: indexed %v, reference %v", i, indexed.reads[i], reference.reads[i])
		}
	}
	is, rs := indexed.stats, reference.stats
	if is.Started != rs.Started || is.Completed != rs.Completed {
		t.Fatalf("counters: indexed %+v, reference %+v", is, rs)
	}
	if !relClose(is.DeliveredMB, rs.DeliveredMB, 1e-6) {
		t.Fatalf("delivered: indexed %v, reference %v", is.DeliveredMB, rs.DeliveredMB)
	}
	busyTol := budgetAt(indexed.end) + 1
	if d := is.BusyTime - rs.BusyTime; d < -busyTol || d > busyTol {
		t.Fatalf("busy: indexed %v, reference %v", is.BusyTime, rs.BusyTime)
	}
	if !relClose(is.AvgBandwidth, rs.AvgBandwidth, 1e-6) {
		t.Fatalf("bandwidth: indexed %v, reference %v", is.AvgBandwidth, rs.AvgBandwidth)
	}
}

// checkInvariants asserts physical soundness regardless of oracle
// agreement: delivered data never exceeds the capacity × busy-time
// envelope (contention only shrinks it), completed
// transfers account for their full size, and the books balance.
func checkInvariants(t *testing.T, tr linkTrace) {
	t.Helper()
	envelope := tr.capacity*tr.stats.BusyTime.Seconds() + 1e-6
	if tr.stats.DeliveredMB > envelope {
		t.Fatalf("delivered %v MB exceeds capacity envelope %v MB", tr.stats.DeliveredMB, envelope)
	}
	slack := float64(tr.stats.Completed)*completionEpsilonMB + 1e-6
	if tr.sumCompleted > tr.stats.DeliveredMB+slack {
		t.Fatalf("completed sizes %v MB exceed delivered %v MB", tr.sumCompleted, tr.stats.DeliveredMB)
	}
	canceled := 0
	for _, ok := range tr.cancels {
		if ok {
			canceled++
		}
	}
	if tr.stats.Started != tr.stats.Completed+canceled+tr.active {
		t.Fatalf("books: started %d != completed %d + canceled %d + active %d",
			tr.stats.Started, tr.stats.Completed, canceled, tr.active)
	}
}

func TestLinkDifferentialSeeds(t *testing.T) {
	configs := []struct {
		capacity, perTransfer float64
	}{
		{600, 0},
		{600, 45},
		{10000, 100},
	}
	for seed := int64(1); seed <= 10; seed++ {
		ops := randomOps(seed, 300)
		for _, cfg := range configs {
			indexed := driveLink(NewLink, cfg.capacity, cfg.perTransfer, ops)
			reference := driveLink(NewReferenceLink, cfg.capacity, cfg.perTransfer, ops)
			compareTraces(t, indexed, reference, 1)
			checkInvariants(t, indexed)
			checkInvariants(t, reference)
			if len(indexed.completions) == 0 {
				t.Fatalf("seed %d produced no completions; op mix too weak", seed)
			}
		}
	}
}

// decodeOps turns fuzz bytes into an op sequence. Sizes and gaps are
// deliberately quantized — the adversarial regime where etas land on
// exact nanosecond boundaries and rounding may flip.
func decodeOps(data []byte) []linkOp {
	var ops []linkOp
	for len(data) >= 4 && len(ops) < 256 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		op := linkOp{gap: time.Duration(b1) * 7_770_001} // messy prime ns
		switch b0 % 8 {
		case 0, 1, 2, 3:
			op.kind = opStart
			op.size = float64(uint(b2)<<8|uint(b3)) / 16
		case 4:
			op.kind = opCancel
			op.target = int(b2)<<8 | int(b3)
		case 5:
			op.kind = opSetContention
			op.factor = float64(b2%100+1) / 100
		case 6:
			op.kind = opSetContention
			op.factor = float64(b2%25+76) / 100
		default:
			op.kind = opRead
		}
		ops = append(ops, op)
	}
	return ops
}

func FuzzLinkDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 2, 2, 3, 4, 1, 0, 0})
	f.Add([]byte{1, 0, 0, 16, 1, 0, 0, 16, 5, 3, 50, 0, 6, 9, 10, 0, 7, 1, 0, 0})
	f.Add([]byte{3, 5, 15, 255, 4, 2, 0, 1, 0, 0, 0, 0, 2, 200, 1, 1})
	for seed := int64(1); seed <= 4; seed++ {
		rng := simclock.NewRNG(seed)
		buf := make([]byte, 64)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		if len(ops) == 0 {
			t.Skip()
		}
		indexed := driveLink(NewLink, 100, 7, ops)
		reference := driveLink(NewReferenceLink, 100, 7, ops)
		compareTraces(t, indexed, reference, 1)
		checkInvariants(t, indexed)
		checkInvariants(t, reference)
	})
}

// TestPropertyDeliveredWithinEnvelope re-checks the capacity envelope
// under aggressive contention churn on both
// implementations.
func TestPropertyDeliveredWithinEnvelope(t *testing.T) {
	for seed := int64(100); seed < 116; seed++ {
		ops := randomOps(seed, 200)
		for _, mk := range []func(*simclock.Engine, float64, float64) *Link{NewLink, NewReferenceLink} {
			tr := driveLink(mk, 250, 20, ops)
			checkInvariants(t, tr)
		}
	}
}
