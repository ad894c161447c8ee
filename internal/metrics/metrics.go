// Package metrics provides step time series and the supply/demand
// accounting the paper's evaluation reports: resource in-use (RIU),
// resource shortage (RSH), resource supply (RS), resource waste (RW),
// and their definite integrals over the workload runtime
// (core·seconds of accumulated waste and shortage).
package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Series is a right-continuous step function sampled at
// non-decreasing times: the value set at time t holds until the next
// sample.
type Series struct {
	Name   string
	times  []time.Time
	values []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Samples must be added in non-decreasing time
// order; a sample at an existing last timestamp overwrites it.
func (s *Series) Add(t time.Time, v float64) {
	if n := len(s.times); n > 0 {
		last := s.times[n-1]
		if t.Before(last) {
			panic(fmt.Sprintf("metrics: sample at %v before last %v in series %q", t, last, s.Name))
		}
		if t.Equal(last) {
			s.values[n-1] = v
			return
		}
	}
	s.times = append(s.times, t)
	s.values = append(s.values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.times) }

// At returns the i-th sample.
func (s *Series) At(i int) (time.Time, float64) { return s.times[i], s.values[i] }

// Max returns the maximum value, or 0 if empty.
func (s *Series) Max() float64 {
	m := 0.0
	for i, v := range s.values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// IntegralUntil integrates the step function from the first sample to
// end, extending the final value to end.
func (s *Series) IntegralUntil(end time.Time) float64 {
	total := 0.0
	for i := range s.times {
		var until time.Time
		if i+1 < len(s.times) {
			until = s.times[i+1]
			if until.After(end) {
				until = end
			}
		} else {
			until = end
		}
		if until.After(s.times[i]) {
			total += s.values[i] * until.Sub(s.times[i]).Seconds()
		}
	}
	return total
}

// ValueAt returns the step-function value at time t (the most recent
// sample at or before t), or 0 before the first sample.
func (s *Series) ValueAt(t time.Time) float64 {
	v := 0.0
	for i := range s.times {
		if s.times[i].After(t) {
			break
		}
		v = s.values[i]
	}
	return v
}

// Downsample returns up to n evenly spaced (elapsed-seconds, value)
// points between the first sample and end, for compact printing.
func (s *Series) Downsample(end time.Time, n int) [][2]float64 {
	if len(s.times) == 0 || n <= 0 {
		return nil
	}
	start := s.times[0]
	span := end.Sub(start)
	if span <= 0 || n == 1 {
		return [][2]float64{{0, s.values[0]}}
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		t := start.Add(time.Duration(float64(span) * float64(i) / float64(n-1)))
		out = append(out, [2]float64{t.Sub(start).Seconds(), s.ValueAt(t)})
	}
	return out
}

// ASCII renders the series as a small horizontal bar chart, one row
// per downsampled point — enough to eyeball the shape of a
// supply/demand curve in terminal output.
func (s *Series) ASCII(end time.Time, rows, width int) string {
	pts := s.Downsample(end, rows)
	if len(pts) == 0 {
		return "(empty)\n"
	}
	maxV := 0.0
	for _, p := range pts {
		if p[1] > maxV {
			maxV = p[1]
		}
	}
	var b strings.Builder
	for _, p := range pts {
		bars := 0
		if maxV > 0 {
			bars = int(math.Round(p[1] / maxV * float64(width)))
		}
		fmt.Fprintf(&b, "%7.0fs |%-*s| %.1f\n", p[0], width, strings.Repeat("#", bars), p[1])
	}
	return b.String()
}
