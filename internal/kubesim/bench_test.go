package kubesim

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"hta/internal/simclock"
)

// BenchmarkSchedulerSweep measures one scheduler pass over a cluster
// with 100 nodes and 300 pods.
func BenchmarkSchedulerSweep(b *testing.B) {
	eng := simclock.NewEngine(t0)
	c := NewCluster(eng, Config{InitialNodes: 100, MaxNodes: 100, Seed: 1})
	defer c.Stop()
	for i := 0; i < 300; i++ {
		c.CreatePod(smallPod(fmt.Sprintf("p%d", i)))
	}
	eng.RunFor(time.Minute) // bind + start everything
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.scheduleOnce()
	}
}

// benchChurnCluster builds the ISSUE's scheduling stress fixture: a
// 2000-node cluster with 4000 one-core resident pods bound across the
// first third of the fleet. The mass placement always runs with the
// indexed predicates — a naive mass pass at this scale takes minutes
// and is setup, not the thing measured — and the requested mode is
// restored before the churn rounds.
func benchChurnCluster(b *testing.B, naive bool) *Cluster {
	b.Helper()
	eng := simclock.NewEngine(t0)
	c := NewCluster(eng, Config{
		InitialNodes:    2000,
		MinNodes:        2000,
		MaxNodes:        2000,
		Seed:            1,
		NaiveScheduling: naive,
	})
	b.Cleanup(c.Stop)
	c.cfg.NaiveScheduling = false
	for i := 0; i < 4000; i++ {
		if _, err := c.CreatePod(smallPod(fmt.Sprintf("resident-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	c.scheduleOnce()
	if n := c.pendingLive; n != 0 {
		b.Fatalf("%d residents unschedulable after setup", n)
	}
	c.cfg.NaiveScheduling = naive
	return c
}

// churnRound deletes the 1000 pods bound to the lowest-indexed nodes,
// creates 1000 replacements and runs one scheduler pass. Victims come
// from the front of the first-fit order so the freed slots refill in a
// steady state round after round, keeping the round's cost dominated
// by the scheduling predicates rather than scan depth.
func churnRound(b *testing.B, c *Cluster, round int) {
	b.Helper()
	victims := make([]string, 0, 1000)
	for _, n := range c.sortedNodes() {
		if len(victims) == 1000 {
			break
		}
		bucket := make([]string, 0, len(c.podsByNode[n.Name]))
		for name := range c.podsByNode[n.Name] {
			bucket = append(bucket, name)
		}
		sort.Strings(bucket)
		for _, name := range bucket {
			if len(victims) == 1000 {
				break
			}
			victims = append(victims, name)
		}
	}
	for _, name := range victims {
		if err := c.DeletePod(name); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.CreatePod(smallPod(fmt.Sprintf("churn-%d-%d", round, i))); err != nil {
			b.Fatal(err)
		}
	}
	c.scheduleOnce()
	if n := c.pendingLive; n != 0 {
		b.Fatalf("round %d: %d pods unschedulable", round, n)
	}
}

func benchKubesimChurn(b *testing.B, naive bool) {
	c := benchChurnCluster(b, naive)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 4; r++ {
			churnRound(b, c, i*4+r)
		}
	}
}

// BenchmarkKubesimSchedule measures the indexed control plane on the
// 2000-node cluster under 4000 pods of churn per iteration.
func BenchmarkKubesimSchedule(b *testing.B) { benchKubesimChurn(b, false) }

// BenchmarkKubesimScheduleNaive runs the identical churn with the
// retained naive predicates — the baseline for the speedup claim.
func BenchmarkKubesimScheduleNaive(b *testing.B) { benchKubesimChurn(b, true) }

// BenchmarkClusterLifecycle measures a complete scale-up/down cycle:
// 20 node-sized pods on a 3-node cluster growing to quota.
func BenchmarkClusterLifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := simclock.NewEngine(t0)
		c := NewCluster(eng, Config{InitialNodes: 3, MaxNodes: 20, Seed: int64(i + 1)})
		for j := 0; j < 20; j++ {
			spec := smallPod(fmt.Sprintf("p%d", j))
			spec.Resources = c.Config().NodeAllocatable
			c.CreatePod(spec)
		}
		eng.RunFor(10 * time.Minute)
		if got := c.ReadyNodes(); got != 20 {
			b.Fatalf("nodes = %d", got)
		}
		c.Stop()
	}
}

// BenchmarkKubesimFleet is the scaling evidence for reconcile cost
// proportional to change: the io-fleet ramp without the rest of the
// stack. 3 initial nodes, a quota of W, W whole-node pods created up
// front; the engine runs until every pod is Running — one provisioning
// wave of W-3 nodes, every scheduler and cloud-controller sync on the
// way. The required 20k/10k ratio is ≤ 2.2 (the full sweeps were ≈3.3).
func BenchmarkKubesimFleet(b *testing.B) {
	for _, w := range []int{10_000, 20_000} {
		b.Run(fmt.Sprintf("W=%dk", w/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := simclock.NewEngine(t0)
				c := NewCluster(eng, Config{InitialNodes: 3, MaxNodes: w, Seed: 1})
				running := 0
				c.OnPod(func(ev PodWatchEvent) {
					if ev.Reason == ReasonStarted {
						running++
					}
				})
				for j := 0; j < w; j++ {
					spec := smallPod(fmt.Sprintf("p%d", j))
					spec.Resources = c.Config().NodeAllocatable
					if _, err := c.CreatePod(spec); err != nil {
						b.Fatal(err)
					}
				}
				for running < w {
					if eng.Now().Sub(t0) > time.Hour {
						b.Fatalf("only %d of %d pods running after an hour", running, w)
					}
					eng.RunFor(time.Minute)
				}
				c.Stop()
			}
		})
	}
}
