package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func at(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// last returns the series' final value, or 0 if it is empty.
func last(s *Series) float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.values[len(s.values)-1]
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x")
	if s.Len() != 0 || last(s) != 0 || s.Max() != 0 {
		t.Error("empty series accessors")
	}
	s.Add(at(0), 3)
	s.Add(at(10), 5)
	s.Add(at(20), 1)
	if s.Len() != 3 || last(s) != 1 || s.Max() != 5 {
		t.Errorf("Len=%d Last=%v Max=%v", s.Len(), last(s), s.Max())
	}
	tm, v := s.At(1)
	if !tm.Equal(at(10)) || v != 5 {
		t.Errorf("At(1) = %v %v", tm, v)
	}
}

func TestAddSameTimestampOverwrites(t *testing.T) {
	s := NewSeries("x")
	s.Add(at(0), 1)
	s.Add(at(0), 2)
	if s.Len() != 1 || last(s) != 2 {
		t.Errorf("Len=%d Last=%v", s.Len(), last(s))
	}
}

func TestAddBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewSeries("x")
	s.Add(at(10), 1)
	s.Add(at(5), 2)
}

func TestIntegral(t *testing.T) {
	s := NewSeries("x")
	s.Add(at(0), 3)  // 3 for 10 s = 30
	s.Add(at(10), 5) // 5 for 10 s = 50
	s.Add(at(20), 0)
	if got := s.IntegralUntil(at(30)); !almost(got, 80) {
		t.Errorf("IntegralUntil(30) = %v (final value 0)", got)
	}
	if got := s.IntegralUntil(at(15)); !almost(got, 55) {
		t.Errorf("IntegralUntil(15) = %v, want 55", got)
	}
	if got := s.IntegralUntil(at(5)); !almost(got, 15) {
		t.Errorf("IntegralUntil(5) = %v, want 15", got)
	}
}

func TestValueAt(t *testing.T) {
	s := NewSeries("x")
	s.Add(at(10), 2)
	s.Add(at(20), 7)
	cases := []struct {
		t    float64
		want float64
	}{{5, 0}, {10, 2}, {15, 2}, {20, 7}, {100, 7}}
	for _, c := range cases {
		if got := s.ValueAt(at(c.t)); got != c.want {
			t.Errorf("ValueAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestDownsample(t *testing.T) {
	s := NewSeries("x")
	s.Add(at(0), 1)
	s.Add(at(50), 9)
	pts := s.Downsample(at(100), 5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0] != [2]float64{0, 1} {
		t.Errorf("first = %v", pts[0])
	}
	if pts[4] != [2]float64{100, 9} {
		t.Errorf("last = %v", pts[4])
	}
	if pts[2] != [2]float64{50, 9} {
		t.Errorf("mid = %v", pts[2])
	}
	if got := NewSeries("e").Downsample(at(1), 3); got != nil {
		t.Errorf("empty downsample = %v", got)
	}
}

func TestASCII(t *testing.T) {
	s := NewSeries("x")
	s.Add(at(0), 10)
	s.Add(at(50), 5)
	out := s.ASCII(at(100), 3, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], strings.Repeat("#", 20)) {
		t.Errorf("max row not full width: %q", lines[0])
	}
	if out := NewSeries("e").ASCII(at(1), 3, 10); !strings.Contains(out, "empty") {
		t.Errorf("empty ASCII = %q", out)
	}
}

func TestAccount(t *testing.T) {
	a := NewAccount()
	// supply 9, in-use 3, shortage 6 for 100 s, then balanced.
	a.Sample(at(0), 9, 3, 6)
	a.Sample(at(100), 9, 9, 0)
	end := at(200)
	if got := a.AccumulatedWaste(end); !almost(got, 600) {
		t.Errorf("waste = %v, want 600", got)
	}
	if got := a.AccumulatedShortage(end); !almost(got, 600) {
		t.Errorf("shortage = %v, want 600", got)
	}
	if got := last(a.Waste); got != 0 {
		t.Errorf("final waste = %v", got)
	}
}

func TestAccountWasteClampedNonNegative(t *testing.T) {
	a := NewAccount()
	a.Sample(at(0), 3, 5, 0) // oversubscribed: in-use > supply
	if got := last(a.Waste); got != 0 {
		t.Errorf("waste = %v, want clamp to 0", got)
	}
}

// Property: for any positive step series, IntegralUntil is monotone
// in the end time and equals the sum of rectangle areas.
func TestPropertyIntegralMonotone(t *testing.T) {
	f := func(vals []uint8) bool {
		s := NewSeries("p")
		for i, v := range vals {
			s.Add(at(float64(i*10)), float64(v))
		}
		prev := 0.0
		for e := 0.0; e <= float64(len(vals)*10); e += 7 {
			cur := s.IntegralUntil(at(e))
			if cur+1e-9 < prev {
				return false
			}
			prev = cur
		}
		// Exact value at the final grid point.
		want := 0.0
		for i := 0; i+1 < len(vals); i++ {
			want += float64(vals[i]) * 10
		}
		if len(vals) > 0 {
			got := s.IntegralUntil(at(float64((len(vals) - 1) * 10)))
			if !almost(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteCSVColumns(t *testing.T) {
	a := NewSeries("supply")
	a.Add(at(0), 9)
	a.Add(at(10), 60)
	b := NewSeries("in_use")
	b.Add(at(5), 3)
	var out strings.Builder
	if err := WriteCSVColumns(&out, t0, a, b); err != nil {
		t.Fatal(err)
	}
	want := "elapsed_s,supply,in_use\n0.0,9,0\n5.0,9,3\n10.0,60,3\n"
	if out.String() != want {
		t.Errorf("csv = %q, want %q", out.String(), want)
	}
}
