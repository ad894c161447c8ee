package workload

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"hta/internal/simclock"
)

// FuzzReadTrace ensures arbitrary CSV never panics the trace reader
// and accepted traces produce sane specs.
func FuzzReadTrace(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("category,exec_s\nx,1\n")
	f.Add("exec_s,category,cores\n5,c,2\n")
	f.Add("category,exec_s\n\"a,b\",3\n")
	f.Fuzz(func(t *testing.T, src string) {
		specs, err := ReadTrace(strings.NewReader(src))
		if err != nil {
			return
		}
		for _, s := range specs {
			if s.Category == "" {
				t.Fatal("accepted spec with empty category")
			}
			if s.Profile.ExecDuration < 0 {
				t.Fatal("accepted negative duration")
			}
		}
	})
}

// FuzzStreamArrivals drives the segment cut with arbitrary burst edges
// — outside the window, on 0, on Window, zero and negative durations —
// and asserts that arrivals never panic, stay sorted inside
// [0, Window), and repeat for the same seed. Work per input is
// bounded: a window of at most 1 h, a base rate of at most 100/min,
// at most 4 bursts with multipliers in (0, 10], and inputs whose
// expected count exceeds 100k are skipped.
//
// bursts holds up to four 5-byte records: start and duration as
// little-endian int16 in units of Window/4096 (so ±8 windows, with 0
// and Window exact), then the multiplier in tenths, 0.1 to 10.
func FuzzStreamArrivals(f *testing.F) {
	f.Add(int64(1), int64(time.Hour), 10.0, 0.8, int64(30*time.Minute), []byte{})
	f.Add(int64(2), int64(time.Hour), 4.0, 0.7, int64(time.Hour),
		[]byte{0x00, 0x06, 0x00, 0x01, 59, 0x00, 0x10, 0x00, 0xf0, 39, 0x00, 0x00, 0x00, 0x02, 99, 0x00, 0x08, 0x00, 0x10, 4})
	f.Add(int64(3), int64(10*time.Minute), 100.0, 0.0, int64(0),
		[]byte{0x00, 0xf0, 0x00, 0x30, 19, 0x00, 0x04, 0x00, 0x00, 9})
	f.Add(int64(4), int64(time.Minute), 1e-300, 0.5, int64(-time.Second), []byte{0x00, 0x08, 0x00, 0xf8, 0})
	f.Fuzz(func(t *testing.T, seed, window int64, base, amp float64, period int64, bursts []byte) {
		p := StreamParams{
			Window:     1 + time.Duration(window&math.MaxInt64)%time.Hour,
			BasePerMin: math.Abs(math.Mod(base, 100)),
			Amplitude:  math.Abs(math.Mod(amp, 1)),
			Period:     time.Duration(period % int64(2*time.Hour)),
			Seed:       seed,
		}
		if math.IsNaN(p.BasePerMin) || math.IsNaN(p.Amplitude) {
			return
		}
		edge := func(b []byte) time.Duration {
			return time.Duration(int16(binary.LittleEndian.Uint16(b))) * p.Window / 4096
		}
		for i := 0; i+5 <= len(bursts) && len(p.Bursts) < 4; i += 5 {
			p.Bursts = append(p.Bursts, Burst{
				Start:      edge(bursts[i:]),
				Duration:   edge(bursts[i+2:]),
				Multiplier: float64(bursts[i+4]%100+1) / 10,
			})
		}
		segs := p.segments()
		if p.mean(segs) > 1e5 {
			return
		}
		got := times(p)
		for i, at := range got {
			if at < 0 || at >= p.Window {
				t.Fatalf("arrival %d at %v outside [0, %v)", i, at, p.Window)
			}
			if i > 0 && at < got[i-1] {
				t.Fatalf("arrival %d at %v before %v", i, at, got[i-1])
			}
		}
		var again []time.Duration
		p.arrivals(segs, simclock.NewRNG(seed), func(at time.Duration) { again = append(again, at) })
		if !slices.Equal(got, again) {
			t.Fatalf("same seed gave %d then %d arrivals", len(got), len(again))
		}
	})
}
