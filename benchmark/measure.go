package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

const mb = 1 << 20

// heapSamplePeriod is how often the heap sampler reads the live-heap
// gauge, in host time.
const heapSamplePeriod = 20 * time.Millisecond

// heapSampler tracks the maximum of heap-object bytes (live objects
// plus garbage not yet swept) from its own goroutine, so the number
// does not depend on where the simulation happens to be when it is
// read. runtime/metrics reads do not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			read()
			select {
			case <-tick.C:
			case <-h.stop:
				read()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// Stop ends the sampler and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

// memDelta is what the Go runtime did between two instants.
type memDelta struct {
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// sortedCopy returns vs sorted ascending, leaving vs as it was.
func sortedCopy(vs []float64) []float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 for an empty set).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method) —
// the spread the regression gate computes. Fewer than two values have
// no spread.
func iqrShare(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(vs)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((at(0.75) - at(0.25)) / med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
