// Package resources provides the resource vectors used throughout the
// stack: CPU (millicores), memory (MB) and disk (MB). The same vector
// type describes task requirements, worker capacities, node
// allocatables and aggregate supply/demand accounting, mirroring the
// (cores, memory, disk) triples of Work Queue and Kubernetes.
package resources

import (
	"errors"
	"fmt"
)

// Vector is a (CPU, memory, disk) resource amount. CPU is in
// millicores (1000 = one core) as in Kubernetes; memory and disk are
// in megabytes. Vectors may be negative in intermediate accounting
// (e.g. shortage = demand - supply).
type Vector struct {
	MilliCPU int64 // 1000 = 1 core
	MemoryMB int64
	DiskMB   int64
}

// Zero is the empty resource vector.
var Zero = Vector{}

// New builds a vector from cores, memory MB and disk MB.
func New(cores float64, memMB, diskMB int64) Vector {
	return Vector{MilliCPU: int64(cores * 1000), MemoryMB: memMB, DiskMB: diskMB}
}

// CoresValue returns the CPU amount in cores as a float.
func (v Vector) CoresValue() float64 { return float64(v.MilliCPU) / 1000 }

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	return Vector{v.MilliCPU + w.MilliCPU, v.MemoryMB + w.MemoryMB, v.DiskMB + w.DiskMB}
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) Vector {
	return Vector{v.MilliCPU - w.MilliCPU, v.MemoryMB - w.MemoryMB, v.DiskMB - w.DiskMB}
}

// Max returns the component-wise maximum of v and w.
func (v Vector) Max(w Vector) Vector {
	return Vector{max64(v.MilliCPU, w.MilliCPU), max64(v.MemoryMB, w.MemoryMB), max64(v.DiskMB, w.DiskMB)}
}

// Min returns the component-wise minimum of v and w.
func (v Vector) Min(w Vector) Vector {
	return Vector{min64(v.MilliCPU, w.MilliCPU), min64(v.MemoryMB, w.MemoryMB), min64(v.DiskMB, w.DiskMB)}
}

// Fits reports whether v fits within capacity w on every dimension.
func (v Vector) Fits(w Vector) bool {
	return v.MilliCPU <= w.MilliCPU && v.MemoryMB <= w.MemoryMB && v.DiskMB <= w.DiskMB
}

// IsZero reports whether every component is zero.
func (v Vector) IsZero() bool { return v == Zero }

// IsNonNegative reports whether every component is >= 0.
func (v Vector) IsNonNegative() bool {
	return v.MilliCPU >= 0 && v.MemoryMB >= 0 && v.DiskMB >= 0
}

// AnyPositive reports whether any component is > 0.
func (v Vector) AnyPositive() bool {
	return v.MilliCPU > 0 || v.MemoryMB > 0 || v.DiskMB > 0
}

// String renders the vector as "2.000c 4096MB 10240MB-disk".
func (v Vector) String() string {
	return fmt.Sprintf("%.3fc %dMB %dMB-disk", v.CoresValue(), v.MemoryMB, v.DiskMB)
}

// ErrInsufficient is returned by Pool.Acquire when the request does
// not fit the available resources.
var ErrInsufficient = errors.New("resources: insufficient resources")

// Pool tracks capacity and in-use amounts for an allocatable entity
// (a worker, a node). The zero Pool has zero capacity.
type Pool struct {
	capacity Vector
	used     Vector
}

// NewPool returns a Pool with the given capacity.
func NewPool(capacity Vector) *Pool {
	p := MakePool(capacity)
	return &p
}

// MakePool returns a Pool value with the given capacity, for callers
// that embed the pool instead of pointing at a separate allocation.
func MakePool(capacity Vector) Pool {
	if !capacity.IsNonNegative() {
		panic(fmt.Sprintf("resources: negative pool capacity %v", capacity))
	}
	return Pool{capacity: capacity}
}

// Capacity returns the pool's total capacity.
func (p *Pool) Capacity() Vector { return p.capacity }

// Used returns the amount currently acquired.
func (p *Pool) Used() Vector { return p.used }

// Available returns capacity minus used.
func (p *Pool) Available() Vector { return p.capacity.Sub(p.used) }

// CanFit reports whether v could be acquired now.
func (p *Pool) CanFit(v Vector) bool { return p.used.Add(v).Fits(p.capacity) }

// Acquire reserves v from the pool, or returns ErrInsufficient.
func (p *Pool) Acquire(v Vector) error {
	if !v.IsNonNegative() {
		return fmt.Errorf("resources: acquire of negative vector %v", v)
	}
	if !p.CanFit(v) {
		return fmt.Errorf("%w: need %v, available %v", ErrInsufficient, v, p.Available())
	}
	p.used = p.used.Add(v)
	return nil
}

// Release returns v to the pool. Releasing more than is in use is a
// programming error and panics.
func (p *Pool) Release(v Vector) {
	u := p.used.Sub(v)
	if !u.IsNonNegative() {
		panic(fmt.Sprintf("resources: release %v exceeds used %v", v, p.used))
	}
	p.used = u
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
