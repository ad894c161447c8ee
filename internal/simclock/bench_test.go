package simclock

import (
	"testing"
	"time"
)

// benchThroughput is the raw schedule+dispatch loop shared by the
// engine and reference variants: the floor under every simulated
// experiment.
func benchThroughput(b *testing.B, e clock) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(i%1000)*time.Millisecond, "bench", func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineEventThroughput measures the int64 timing-wheel core.
func BenchmarkEngineEventThroughput(b *testing.B) {
	benchThroughput(b, engineClock{NewEngine(t0)})
}

// BenchmarkEngineEventThroughputReference measures the seed core
// (refEngine: a container/heap of pointer events keyed by time.Time)
// for the speedup comparison.
func BenchmarkEngineEventThroughputReference(b *testing.B) {
	benchThroughput(b, newRefEngine(t0))
}

// BenchmarkTimerStop measures cancellation cost.
func BenchmarkTimerStop(b *testing.B) {
	e := NewEngine(t0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := e.After(time.Hour, "bench", func() {})
		t.Stop()
		if i%4096 == 4095 {
			e.Run() // drain canceled events
		}
	}
}

// BenchmarkTickerChurn measures periodic-controller overhead. A
// steady ticker must not allocate per firing: the callback closure is
// bound once in Every and reused, which the AllocsPerRun probe pins.
func BenchmarkTickerChurn(b *testing.B) {
	e := NewEngine(t0)
	n := 0
	tk := e.Every(time.Second, "bench", func() { n++ })
	e.RunFor(10 * time.Second) // warm the slab and free list
	if avg := testing.AllocsPerRun(100, func() { e.RunFor(time.Second) }); avg != 0 {
		b.Fatalf("ticker firing allocates %.1f objects, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(e.Now().Add(time.Duration(b.N) * time.Second))
	b.StopTimer()
	tk.Stop()
	if n == 0 && b.N > 1 {
		b.Fatal("ticker never fired")
	}
}
