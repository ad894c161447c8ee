package resources

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genVector makes quick generate bounded, well-behaved vectors.
func genVector(r *rand.Rand, bound int64) Vector {
	return Vector{
		MilliCPU: r.Int63n(bound),
		MemoryMB: r.Int63n(bound),
		DiskMB:   r.Int63n(bound),
	}
}

type boundedVec Vector

func (boundedVec) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(boundedVec(genVector(r, 1<<20)))
}

func TestArithmetic(t *testing.T) {
	a := New(2, 4096, 100)
	b := New(0.5, 1024, 50)
	if got := a.Add(b); got != New(2.5, 5120, 150) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != New(1.5, 3072, 50) {
		t.Errorf("Sub = %v", got)
	}
}

func TestFits(t *testing.T) {
	cap := New(3, 12288, 100000)
	if !New(1, 4096, 0).Fits(cap) {
		t.Error("small should fit")
	}
	if New(4, 1, 1).Fits(cap) {
		t.Error("cpu overflow should not fit")
	}
	if New(1, 20000, 1).Fits(cap) {
		t.Error("memory overflow should not fit")
	}
	if !cap.Fits(cap) {
		t.Error("exact fit should fit")
	}
}

func TestPredicates(t *testing.T) {
	if !Zero.IsZero() || !Zero.IsNonNegative() || Zero.AnyPositive() {
		t.Error("Zero predicates wrong")
	}
	v := Vector{MilliCPU: -1, MemoryMB: 5}
	if v.IsNonNegative() {
		t.Error("negative cpu should not be non-negative")
	}
	if !v.AnyPositive() {
		t.Error("AnyPositive should see memory")
	}
}

func TestParseRoundTripValues(t *testing.T) {
	v := New(1.5, 2048, 512)
	if v.String() != "1.500c 2048MB 512MB-disk" {
		t.Errorf("String = %q", v.String())
	}
}

func TestPool(t *testing.T) {
	p := NewPool(New(3, 12288, 1000))
	if err := p.Acquire(New(2, 4096, 100)); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if got := p.Available(); got != New(1, 8192, 900) {
		t.Errorf("Available = %v", got)
	}
	err := p.Acquire(New(2, 1, 1))
	if !errors.Is(err, ErrInsufficient) {
		t.Errorf("over-acquire error = %v, want ErrInsufficient", err)
	}
	p.Release(New(2, 4096, 100))
	if !p.Used().IsZero() {
		t.Errorf("Used = %v after full release", p.Used())
	}
}

func TestPoolAcquireNegative(t *testing.T) {
	p := NewPool(New(3, 1, 1))
	if err := p.Acquire(Vector{MilliCPU: -5}); err == nil {
		t.Error("negative acquire should fail")
	}
}

func TestPoolOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(New(1, 1, 1)).Release(New(1, 0, 0))
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(Vector{MilliCPU: -1})
}

// Property: Add is commutative and associative; Sub inverts Add.
func TestPropertyAddSub(t *testing.T) {
	f := func(a, b, c boundedVec) bool {
		va, vb, vc := Vector(a), Vector(b), Vector(c)
		if va.Add(vb) != vb.Add(va) {
			return false
		}
		if va.Add(vb).Add(vc) != va.Add(vb.Add(vc)) {
			return false
		}
		return va.Add(vb).Sub(vb) == va
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Fits is reflexive and monotone under Add.
func TestPropertyFitsMonotone(t *testing.T) {
	f := func(a, b boundedVec) bool {
		va, vb := Vector(a), Vector(b)
		if !va.Fits(va) {
			return false
		}
		// a fits a+b always (b non-negative by construction).
		return va.Fits(va.Add(vb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: pool conservation — used + available == capacity after
// any sequence of successful acquires/releases.
func TestPropertyPoolConservation(t *testing.T) {
	f := func(reqs []boundedVec) bool {
		capacity := New(1000, 1<<21, 1<<21)
		p := NewPool(capacity)
		var held []Vector
		for i, rq := range reqs {
			v := Vector(rq)
			if i%3 == 2 && len(held) > 0 {
				p.Release(held[len(held)-1])
				held = held[:len(held)-1]
				continue
			}
			if p.Acquire(v) == nil {
				held = append(held, v)
			}
			if p.Used().Add(p.Available()) != capacity {
				return false
			}
			if !p.Used().IsNonNegative() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	a, b := New(1, 100, 5), New(2, 50, 5)
	if a.Max(b) != New(2, 100, 5) {
		t.Errorf("Max = %v", a.Max(b))
	}
	if a.Min(b) != New(1, 50, 5) {
		t.Errorf("Min = %v", a.Min(b))
	}
}

func TestCoresHelpers(t *testing.T) {
	if New(1.25, 0, 0).CoresValue() != 1.25 {
		t.Errorf("CoresValue = %v", New(1.25, 0, 0).CoresValue())
	}
}
