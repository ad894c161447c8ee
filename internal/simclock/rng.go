package simclock

import "math/rand"

// RNG is a seeded deterministic random source for simulations.
// It wraps math/rand with the distributions the cluster model needs
// (truncated normal latencies, jittered durations).
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// TruncNormal returns a normal sample clamped to [min, max]. It is
// used for latencies that are approximately normal but can never be
// negative (e.g. node provisioning time).
func (g *RNG) TruncNormal(mean, stddev, min, max float64) float64 {
	v := g.Normal(mean, stddev)
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// Jitter returns base scaled by a uniform factor in
// [1-frac, 1+frac]. frac is clamped to [0, 1].
func (g *RNG) Jitter(base, frac float64) float64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return base * (1 - frac + 2*frac*g.r.Float64())
}

// Exp returns an exponentially distributed value with the given mean
// — the inter-arrival time of a Poisson process (e.g. preemption
// events). A non-positive mean returns 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}
