package wq

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// BenchmarkDispatchThroughput measures submit → dispatch → complete
// for a large bag of known-size tasks over a 10-worker fleet.
func BenchmarkDispatchThroughput(b *testing.B) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	for i := 0; i < 10; i++ {
		m.AddWorker(fmt.Sprintf("w%d", i), resources.New(4, 16384, 100000))
	}
	spec := knownTask("bench", 1, 30*time.Second)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Submit(spec)
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
	b.StopTimer()
	if m.CompletedCount() != b.N {
		b.Fatalf("completed %d of %d", m.CompletedCount(), b.N)
	}
}

// runScaleDispatch is one full submit → dispatch → complete storm:
// known-size tasks over 4-core workers, with jittered durations so
// completions arrive as a stream of single events — one dispatch pass
// per completion.
func runScaleDispatch(b *testing.B, tasks, workers int) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	for w := 0; w < workers; w++ {
		m.AddWorker(fmt.Sprintf("w%d", w), resources.New(4, 16384, 100000))
	}
	rng := simclock.NewRNG(1)
	for t := 0; t < tasks; t++ {
		d := time.Duration(rng.Jitter(float64(5*time.Minute), 0.8))
		m.Submit(knownTask("bench", 1, d))
	}
	eng.Run()
	if m.CompletedCount() != tasks {
		b.Fatalf("completed %d of %d", m.CompletedCount(), tasks)
	}
}

// BenchmarkScaleDispatch measures the production-scale event storm the
// ROADMAP targets, on the timing-wheel engine with avail-index
// placement: the 10k-task/500-worker cell is the CI smoke and the
// 1M-task/100k-worker cell is the headline scale target.
func BenchmarkScaleDispatch(b *testing.B) {
	b.Run("10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runScaleDispatch(b, 10_000, 500)
		}
	})
	b.Run("100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runScaleDispatch(b, 1_000_000, 100_000)
		}
	})
	b.Run("1M", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runScaleDispatch(b, 10_000_000, 1_000_000)
		}
	})
}

// BenchmarkDispatchMemoryProbe is the 100k headline cell with a heap
// probe riding the simulation: a self-rearming 10-simulated-second
// timer samples runtime.MemStats, and the peak HeapAlloc and GC count
// are reported as benchmark metrics. The larger rungs of the ladder
// are BenchmarkScaleDispatch/1M; this is the CI smoke that catches a
// memory-footprint regression without a full bench run.
func BenchmarkDispatchMemoryProbe(b *testing.B) {
	const (
		tasks   = 1_000_000
		workers = 100_000
	)
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		peak := before.HeapAlloc

		eng := simclock.NewEngine(t0)
		m := NewMaster(eng, nil)
		for w := 0; w < workers; w++ {
			m.AddWorker(fmt.Sprintf("w%d", w), resources.New(4, 16384, 100000))
		}
		rng := simclock.NewRNG(1)
		for t := 0; t < tasks; t++ {
			d := time.Duration(rng.Jitter(float64(5*time.Minute), 0.8))
			m.Submit(knownTask("bench", 1, d))
		}
		var sample func()
		sample = func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			if m.CompletedCount() < tasks {
				eng.After(10*time.Second, "mem-sample", sample)
			}
		}
		eng.After(10*time.Second, "mem-sample", sample)
		eng.Run()
		if m.CompletedCount() != tasks {
			b.Fatalf("completed %d of %d", m.CompletedCount(), tasks)
		}

		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
		b.ReportMetric(float64(after.NumGC-before.NumGC), "GCs")
	}
}

// BenchmarkStatsSnapshot measures the introspection path the
// autoscalers hit every cycle.
func BenchmarkStatsSnapshot(b *testing.B) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	for i := 0; i < 20; i++ {
		m.AddWorker(fmt.Sprintf("w%d", i), resources.New(4, 16384, 100000))
	}
	for i := 0; i < 500; i++ {
		m.Submit(knownTask("bench", 1, time.Hour))
	}
	eng.RunFor(time.Second)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Stats()
		_ = m.WaitingTasks()
		_ = m.RunningTasks()
	}
}

// BenchmarkForEachWaiting measures a sampler's walk over a 20k-task
// queue of tagged, undeclared tasks submitted 1 ms apart: every visit
// fills the scratch Task from the task record, so ns/visit is the
// per-task cost the samplers and the planner pay each tick.
func BenchmarkForEachWaiting(b *testing.B) {
	const n = 20_000
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	for i := 0; i < n; i++ {
		spec := knownTask("walk", 1, time.Second)
		spec.Resources = resources.Zero
		spec.Tag = fmt.Sprint(i)
		spec.Command = "run " + spec.Tag
		m.Submit(spec)
		eng.RunFor(time.Millisecond)
	}
	var milli int64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ForEachWaiting(func(t *Task) {
			if t.Resources.IsZero() {
				milli += 1000
				return
			}
			milli += t.Resources.MilliCPU
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/visit")
}
