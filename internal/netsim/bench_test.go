package netsim

import (
	"testing"

	"hta/internal/simclock"
)

// BenchmarkConcurrentTransfers measures the progressive-filling
// simulation with a steady churn of overlapping transfers.
func BenchmarkConcurrentTransfers(b *testing.B) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 1000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Start(float64(i%100)+1, nil, nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkContendedTransfers includes the contention model.
func BenchmarkContendedTransfers(b *testing.B) {
	e := simclock.NewEngine(t0)
	l := NewLink(e, 1000, 50)
	l.SetContention(0.96)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Start(float64(i%100)+1, nil, nil)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// runLinkScale ramps up to width concurrent transfers and then churns:
// every completion starts a replacement until total transfers have
// been started, holding the active set near width throughout. This is
// the regime the reference implementation handles in O(n) per event
// and the virtual-time implementation in O(log n).
func runLinkScale(mk func(*simclock.Engine, float64, float64) *Link, width, total int) Stats {
	e := simclock.NewEngine(t0)
	l := mk(e, 1000, 0)
	started := 0
	var churn func(any)
	startOne := func() {
		started++
		l.Start(float64(started%97)*3.5+1, churn, nil)
	}
	churn = func(any) {
		if started < total {
			startOne()
		}
	}
	for i := 0; i < width; i++ {
		startOne()
	}
	e.Run()
	return l.Stats()
}

// BenchmarkLinkScale is the headline data-plane benchmark: wide
// concurrent-transfer churn on the virtual-time link. The 10k cell is
// the CI smoke; the 100k-wide/1M-transfer cell is the headline scale
// target unlocked by the int64 event engine.
func BenchmarkLinkScale(b *testing.B) {
	b.Run("10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := runLinkScale(NewLink, 10_000, 20_000)
			if s.Completed != 20_000 {
				b.Fatalf("completed %d transfers, want 20000", s.Completed)
			}
		}
	})
	b.Run("100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := runLinkScale(NewLink, 100_000, 1_000_000)
			if s.Completed != 1_000_000 {
				b.Fatalf("completed %d transfers, want 1000000", s.Completed)
			}
		}
	})
}

// BenchmarkLinkScaleReference runs the identical scenario on the
// retained reference implementation. Like the Naive control-plane
// baselines it is excluded from the CI bench smoke; run it beside
// BenchmarkLinkScale/10k for the speedup.
func BenchmarkLinkScaleReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := runLinkScale(NewReferenceLink, 10_000, 20_000)
		if s.Completed != 20_000 {
			b.Fatalf("completed %d transfers, want 20000", s.Completed)
		}
	}
}
