package kubesim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// churnResult captures everything observable about a cluster run: the
// full watch trace (every pod creation, FailedScheduling, bind, pull,
// start, exit and deletion, and every node arrival and removal, in
// order), plus the final pod and node states.
type churnResult struct {
	watches []watchRecord
	pods    []Pod
	nodes   []Node
}

// runChurnScript drives a cluster through a seeded, randomized
// node/pod churn: mixed-size pod creation, deletions, graceful
// completions, chaos-style node preemptions, and a WorkerSet resizing
// under it. Every decision the script
// makes is derived from cluster state that the differential assertion
// proves identical, so the naive and indexed clusters replay the exact
// same operation sequence.
func runChurnScript(t *testing.T, seed int64, naive bool) churnResult {
	t.Helper()
	eng := simclock.NewEngine(t0)
	c := NewCluster(eng, Config{
		InitialNodes:   6,
		MinNodes:       2,
		MaxNodes:       14,
		Seed:           seed,
		ScaleDownDelay: 90 * time.Second,
	})
	c.SetNaiveScheduling(naive)
	defer c.Stop()
	w := recordWatches(c)
	ws, err := NewWorkerSet(c, "churn-ws", PodSpec{
		Image:     "wq-worker:latest",
		Resources: resources.New(1, 2048, 100),
		Labels:    map[string]string{"app": "worker"},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()

	rng := rand.New(rand.NewSource(seed))
	cpus := []float64{0.5, 1, 2, 3, 4} // 4 cores never fits a node
	mems := []int64{512, 2048, 4096}
	podN := 0
	for step := 0; step < 80; step++ {
		switch rng.Intn(6) {
		case 0, 1: // create a burst of mixed-size pods
			for i := rng.Intn(5); i >= 0; i-- {
				podN++
				spec := PodSpec{
					Name:      fmt.Sprintf("churn-%d", podN),
					Image:     fmt.Sprintf("img-%d", rng.Intn(3)),
					Resources: resources.New(cpus[rng.Intn(len(cpus))], mems[rng.Intn(len(mems))], 100),
					Labels:    map[string]string{"tier": fmt.Sprintf("t%d", rng.Intn(3))},
				}
				if _, err := c.CreatePod(spec); err != nil {
					t.Fatalf("create: %v", err)
				}
			}
		case 2: // delete a random pod
			if pods := c.ListPods(nil); len(pods) > 0 {
				_ = c.DeletePod(pods[rng.Intn(len(pods))].Name)
			}
		case 3: // gracefully complete a random running pod
			var run []Pod
			for _, p := range c.ListPods(nil) {
				if p.Phase == PodRunning {
					run = append(run, p)
				}
			}
			if len(run) > 0 {
				if err := c.MarkPodSucceeded(run[rng.Intn(len(run))].Name); err != nil {
					t.Fatalf("succeed: %v", err)
				}
			}
		case 4: // chaos: preempt a node
			if names := c.ReadyNodeNames(); len(names) > 2 {
				name := names[rng.Intn(len(names))]
				// An unused draw: it keeps each seed's operation
				// sequence the one the seeds were chosen on.
				_ = rng.Intn(2)
				if err := c.PreemptNode(name); err != nil {
					t.Fatalf("node loss: %v", err)
				}
			}
		case 5: // resize the worker set
			ws.SetReplicas(rng.Intn(8))
		}
		eng.RunFor(time.Duration(rng.Intn(25)+1) * time.Second)
	}
	eng.RunFor(5 * time.Minute)
	return churnResult{watches: w.records, pods: c.ListPods(nil), nodes: c.Nodes()}
}

func diffWatches(t *testing.T, naive, indexed []watchRecord) {
	t.Helper()
	n := len(naive)
	if len(indexed) < n {
		n = len(indexed)
	}
	for i := 0; i < n; i++ {
		if naive[i] != indexed[i] {
			t.Fatalf("watch event %d diverges:\n  naive:   %+v\n  indexed: %+v", i, naive[i], indexed[i])
		}
	}
	if len(naive) != len(indexed) {
		t.Fatalf("watch event count diverges: naive %d, indexed %d", len(naive), len(indexed))
	}
}

// assertSameRun requires the indexed run to reproduce the naive one:
// watch trace record for record, then the final pod and node states.
func assertSameRun(t *testing.T, naive, indexed churnResult) {
	t.Helper()
	diffWatches(t, naive.watches, indexed.watches)
	if len(naive.watches) < 100 {
		t.Errorf("script too quiet: only %d watch events", len(naive.watches))
	}
	if len(naive.pods) != len(indexed.pods) {
		t.Fatalf("pod count diverges: %d vs %d", len(naive.pods), len(indexed.pods))
	}
	for i := range naive.pods {
		a, b := naive.pods[i], indexed.pods[i]
		a.usage, b.usage = nil, nil
		if a.Name != b.Name || a.UID != b.UID || a.Phase != b.Phase ||
			a.NodeName != b.NodeName || !a.ScheduledAt.Equal(b.ScheduledAt) ||
			!a.FinishedAt.Equal(b.FinishedAt) || a.UnschedulableSeen != b.UnschedulableSeen {
			t.Fatalf("pod %d diverges:\n  naive:   %+v\n  indexed: %+v", i, a, b)
		}
	}
	if len(naive.nodes) != len(indexed.nodes) {
		t.Fatalf("node count diverges: %d vs %d", len(naive.nodes), len(indexed.nodes))
	}
	for i := range naive.nodes {
		a, b := naive.nodes[i], indexed.nodes[i]
		if a.Name != b.Name || a.Allocated != b.Allocated ||
			a.livePods != b.livePods || !a.EmptySince.Equal(b.EmptySince) {
			t.Fatalf("node %d diverges:\n  naive:   %+v\n  indexed: %+v", i, a, b)
		}
	}
}

// TestDifferentialSchedulingIdentical pins the tentpole's contract:
// for fixed seeds, the indexed control plane reproduces the naive
// reference's bind sequence, watch trace (FailedScheduling
// notifications included) and final state exactly across randomized
// churn with chaos-driven preemptions.
func TestDifferentialSchedulingIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			assertSameRun(t, runChurnScript(t, seed, true), runChurnScript(t, seed, false))
		})
	}
}

// runFleetScript drives a cluster the way io-fleet does rather than the
// way churn does: homogeneous whole-node pods created in bursts that
// overshoot the quota, provisioning waves of a dozen and more nodes
// arriving at one instant (so the roster's string-ordered tail is
// exercised), a node preemption while a wave is in flight, the fleet
// drained through MarkPodSucceeded with the backlog refilling freed
// nodes, and finally scale-down after ScaleDownDelay. Long quiet
// stretches at quota are where the dirty-skip paths run.
func runFleetScript(t *testing.T, seed int64, naive bool) churnResult {
	t.Helper()
	eng := simclock.NewEngine(t0)
	rng := rand.New(rand.NewSource(seed))
	quota := 22 + rng.Intn(8)
	c := NewCluster(eng, Config{
		InitialNodes:   3,
		MinNodes:       2,
		MaxNodes:       quota,
		Seed:           seed,
		ScaleDownDelay: 2 * time.Minute,
	})
	c.SetNaiveScheduling(naive)
	defer c.Stop()
	w := recordWatches(c)
	podN := 0
	burst := func(n int) {
		for i := 0; i < n; i++ {
			podN++
			spec := smallPod(fmt.Sprintf("fleet-%d", podN))
			spec.Resources = c.Config().NodeAllocatable
			if _, err := c.CreatePod(spec); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
	}
	running := func() []Pod {
		var out []Pod
		for _, p := range c.ListPods(nil) {
			if p.Phase == PodRunning {
				out = append(out, p)
			}
		}
		return out
	}

	burst(quota/2 + rng.Intn(4))
	eng.RunFor(time.Duration(40+rng.Intn(80)) * time.Second) // first wave in flight
	burst(quota)                                             // past the quota
	eng.RunFor(time.Duration(20+rng.Intn(40)) * time.Second)
	names := c.ReadyNodeNames()
	if err := c.PreemptNode(names[rng.Intn(len(names))]); err != nil {
		t.Fatalf("preempt node: %v", err)
	}
	eng.RunFor(time.Duration(5+rng.Intn(5)) * time.Minute) // waves land, quota reached
	if got := c.ReadyNodes(); got != quota {
		t.Fatalf("fleet did not reach quota: %d of %d nodes", got, quota)
	}
	names = c.ReadyNodeNames()
	if err := c.PreemptNode(names[rng.Intn(len(names))]); err != nil {
		t.Fatalf("preempt node: %v", err)
	}
	eng.RunFor(4 * time.Minute)

	// Drain: workers exit a few at a time and the unschedulable backlog
	// takes over the freed nodes until no pod is left running.
	for round := 0; round < 200; round++ {
		run := running()
		if len(run) == 0 {
			break
		}
		for i := rng.Intn(4); i >= 0 && len(run) > 0; i-- {
			k := rng.Intn(len(run))
			if err := c.MarkPodSucceeded(run[k].Name); err != nil {
				t.Fatalf("succeed: %v", err)
			}
			if rng.Intn(2) == 0 { // the operator reaps some exited pods at once
				if err := c.DeletePod(run[k].Name); err != nil {
					t.Fatalf("delete: %v", err)
				}
			}
			run = append(run[:k], run[k+1:]...)
		}
		eng.RunFor(time.Duration(1+rng.Intn(30)) * time.Second)
	}
	if left := len(running()); left != 0 {
		t.Fatalf("drain did not finish: %d pods still running", left)
	}
	eng.RunFor(10 * time.Minute) // scale-down to the floor
	if got := c.ReadyNodes(); got != 2 {
		t.Fatalf("fleet did not scale down to MinNodes: %d nodes", got)
	}
	return churnResult{watches: w.records, pods: c.ListPods(nil), nodes: c.Nodes()}
}

// TestDifferentialFleetIdentical is the second differential script:
// the io-fleet shape, exact against the naive reference on 8 seeds.
func TestDifferentialFleetIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			assertSameRun(t, runFleetScript(t, seed, true), runFleetScript(t, seed, false))
		})
	}
}

// TestIndexInvariants replays churn on an indexed cluster and, at
// every step, cross-checks each incremental structure against a fresh
// naive recomputation from the pod store.
func TestIndexInvariants(t *testing.T) {
	eng := simclock.NewEngine(t0)
	c := NewCluster(eng, Config{InitialNodes: 4, MaxNodes: 10, Seed: 7, ScaleDownDelay: time.Minute})
	defer c.Stop()
	w := recordWatches(c)
	// A StatefulSet under the churn: random deletes hit its members, and
	// the reconcile that restores them runs only when one did.
	if err := c.CreateStatefulSet(StatefulSet{Name: "inv-ss", Replicas: 2, Template: smallPod("")}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var clean cleanChecks
	check := func(step int) {
		t.Helper()
		for _, n := range c.nodes {
			wantFree := c.naiveNodeFree(n)
			if got := n.Allocatable.Sub(n.Allocated); got != wantFree {
				t.Fatalf("step %d: node %s Allocated drift: free %v, naive %v", step, n.Name, got, wantFree)
			}
			live := 0
			for _, p := range c.pods {
				if p.NodeName == n.Name && !p.Terminal() {
					live++
				}
			}
			if n.livePods != live {
				t.Fatalf("step %d: node %s livePods %d, naive %d", step, n.Name, n.livePods, live)
			}
			if len(c.podsByNode[n.Name]) != live {
				t.Fatalf("step %d: node %s podsByNode size %d, naive %d", step, n.Name, len(c.podsByNode[n.Name]), live)
			}
			if c.nodeIsEmpty(n) != c.naiveNodeIsEmpty(n) {
				t.Fatalf("step %d: node %s emptiness disagrees", step, n.Name)
			}
		}
		checkPendingQueue(t, c, step)
		checkFleetAggregates(t, c, step)
		clean.check(t, c, w, step)
		for _, sel := range []map[string]string{
			{"tier": "t0"}, {"tier": "t1"}, {"tier": "t0", "app": "x"},
		} {
			got := c.ListPods(sel)
			var want []Pod
			for _, p := range c.ListPods(nil) {
				if p.MatchesSelector(sel) {
					want = append(want, p)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: ListPods(%v) size %d, naive %d", step, sel, len(got), len(want))
			}
			for i := range got {
				if got[i].Name != want[i].Name {
					t.Fatalf("step %d: ListPods(%v)[%d] = %s, naive %s", step, sel, i, got[i].Name, want[i].Name)
				}
			}
		}
		roster := c.sortedNodes()
		fresh := c.naiveSortedNodes()
		if len(roster) != len(fresh) {
			t.Fatalf("step %d: cached roster size %d, fresh %d", step, len(roster), len(fresh))
		}
		for i := range roster {
			if roster[i] != fresh[i] {
				t.Fatalf("step %d: roster[%d] = %s, fresh %s", step, i, roster[i].Name, fresh[i].Name)
			}
		}
	}
	podN := 0
	for step := 0; step < 60; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			podN++
			_, err := c.CreatePod(PodSpec{
				Name:      fmt.Sprintf("inv-%d", podN),
				Image:     "img",
				Resources: resources.New(1, 2048, 100),
				Labels:    map[string]string{"tier": fmt.Sprintf("t%d", rng.Intn(2)), "app": "x"},
			})
			if err != nil {
				t.Fatal(err)
			}
		case 2:
			if pods := c.ListPods(nil); len(pods) > 0 {
				_ = c.DeletePod(pods[rng.Intn(len(pods))].Name)
			}
		case 3:
			var run []Pod
			for _, p := range c.ListPods(nil) {
				if p.Phase == PodRunning {
					run = append(run, p)
				}
			}
			if len(run) > 0 {
				_ = c.MarkPodSucceeded(run[rng.Intn(len(run))].Name)
			}
		case 4:
			if names := c.ReadyNodeNames(); len(names) > 1 {
				_ = c.PreemptNode(names[rng.Intn(len(names))])
			}
		}
		eng.RunFor(time.Duration(rng.Intn(15)+1) * time.Second)
		check(step)
	}
	if clean.sched == 0 || clean.scaleUp == 0 || clean.scaleDown == 0 || clean.statefulSets == 0 {
		t.Errorf("a dirty-skip path was never exercised: %+v", clean)
	}
}

// checkPendingQueue cross-checks the ordered pending queue against a
// scan of the pod store: its live entries are exactly the Pending
// unbound pods, UIDs strictly ascend, and — every step ends after a
// scheduler sync — no tombstone outlived the sync's compaction.
func checkPendingQueue(t *testing.T, c *Cluster, step int) {
	t.Helper()
	want := c.naivePendingUnbound(nil)
	slices.SortFunc(want, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
	if len(c.pendingQ) != len(want) || c.pendingLive != len(want) {
		t.Fatalf("step %d: pending queue len %d, live count %d, naive %d",
			step, len(c.pendingQ), c.pendingLive, len(want))
	}
	for i, p := range c.pendingQ {
		if p != want[i] {
			t.Fatalf("step %d: pendingQ[%d] = %s (uid %d), naive %s (uid %d)",
				step, i, p.Name, p.UID, want[i].Name, want[i].UID)
		}
	}
}

// checkFleetAggregates cross-checks the O(1) fleet counters and the
// empty-node bookkeeping against walks of the node map.
func checkFleetAggregates(t *testing.T, c *Cluster, step int) {
	t.Helper()
	if got, want := c.readyNodes, c.naiveReadyNodes(); got != want {
		t.Fatalf("step %d: readyNodes %d, naive %d", step, got, want)
	}
	if got, want := c.totalAllocatable, c.naiveTotalAllocatable(); got != want {
		t.Fatalf("step %d: totalAllocatable %v, naive %v", step, got, want)
	}
	stamped := 0
	for _, n := range c.nodes {
		if n.EmptySince.IsZero() != (n.livePods != 0) {
			t.Fatalf("step %d: node %s has %d live pods but EmptySince %v", step, n.Name, n.livePods, n.EmptySince)
		}
		if n.EmptySince.IsZero() {
			continue
		}
		stamped++
		if n.EmptySince.Before(c.emptyOldest) {
			t.Fatalf("step %d: node %s empty since %v, before the bound %v", step, n.Name, n.EmptySince, c.emptyOldest)
		}
	}
	if c.emptyNodes != stamped {
		t.Fatalf("step %d: emptyNodes %d, naive %d", step, c.emptyNodes, stamped)
	}
}

// cleanChecks counts how often each dirty-skip path was put to the
// test below.
type cleanChecks struct{ sched, statefulSets, scaleUp, scaleDown int }

// check asserts that a clear dirty flag means no outstanding work: the
// sweep the flag lets the control loop skip is run in its retained
// reference form, and must change nothing — no watch notification (w
// is subscribed to c), no pod, no node, no reservation. (A sweep that
// finds nothing to do mutates nothing, so running it here does not
// perturb the churn.)
func (cc *cleanChecks) check(t *testing.T, c *Cluster, w *watchTrace, step int) {
	t.Helper()
	watches, pods, nodes, provisioning := len(w.records), len(c.pods), len(c.nodes), c.provisioning
	unchanged := func(what string) {
		t.Helper()
		if len(w.records) != watches || len(c.pods) != pods || len(c.nodes) != nodes || c.provisioning != provisioning {
			t.Fatalf("step %d: %s was clean but the reference sweep found work: watch events %d→%d pods %d→%d nodes %d→%d provisioning %d→%d",
				step, what, watches, len(w.records), pods, len(c.pods), nodes, len(c.nodes), provisioning, c.provisioning)
		}
	}
	if !c.ssDirty {
		cc.statefulSets++
		for _, ss := range c.statefulsets {
			c.reconcileStatefulSet(ss)
		}
		unchanged("ssDirty")
	}
	if !c.ssDirty && !c.schedDirty {
		cc.sched++
		c.naiveScheduleOnce()
		unchanged("schedDirty")
	}
	if !c.scaleDirty {
		cc.scaleUp++
		c.naiveScaleUpForPending(c.naiveSortedNodes())
		unchanged("scaleDirty")
	}
	if c.emptyNodes == 0 || c.eng.Now().Sub(c.emptyOldest) < c.cfg.ScaleDownDelay {
		cc.scaleDown++
		c.naiveScaleDownEmpty(c.naiveSortedNodes())
		unchanged("the scale-down bound")
	}
}
