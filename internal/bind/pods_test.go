package bind

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// checkCounts fails the test unless the book's per-state counts equal
// a walk of its map.
func checkCounts(t *testing.T, b *Pods, where string) {
	t.Helper()
	var walk [3]int
	for _, st := range b.state {
		walk[st]++
	}
	if walk != b.count {
		t.Fatalf("%s: counts %v, map walk %v", where, b.count, walk)
	}
	if b.Len() != len(b.state) || b.Live() != walk[PodCreating]+walk[PodActive] {
		t.Fatalf("%s: Len %d Live %d, map walk %v", where, b.Len(), b.Live(), walk)
	}
}

// TestPodsCountsTrackMap drives a book through a seeded random sequence
// of Set, Forget and Reset over a small name space, so pods are re-set,
// forgotten twice and reset while populated, and checks the per-state
// counts against the map after every step.
func TestPodsCountsTrackMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewPods(nil, nil, "p-", kubesim.PodSpec{})
	var sets, forgets, resets int
	for step := 0; step < 5000; step++ {
		name := fmt.Sprintf("p-%d", rng.Intn(12))
		var op string
		switch r := rng.Intn(100); {
		case r < 60:
			st := PodState(rng.Intn(3))
			b.Set(name, st)
			if got, ok := b.State(name); !ok || got != st {
				t.Fatalf("step %d: %s is %d/%v after Set(%d)", step, name, got, ok, st)
			}
			op, sets = "set", sets+1
		case r < 98:
			_, was := b.State(name)
			if b.Forget(name) != was {
				t.Fatalf("step %d: Forget(%s) disagrees with State", step, name)
			}
			op, forgets = "forget", forgets+1
		default:
			b.Reset(step)
			if b.Len() != 0 || b.Seq() != step {
				t.Fatalf("step %d: Reset left %d pods, seq %d", step, b.Len(), b.Seq())
			}
			op, resets = "reset", resets+1
		}
		checkCounts(t, b, fmt.Sprintf("step %d %s %s", step, op, name))
	}
	if sets == 0 || forgets == 0 || resets == 0 {
		t.Fatalf("sequence missed an operation: %d sets, %d forgets, %d resets", sets, forgets, resets)
	}
}

// TestSelectDrainOrder pins the drain choice: creating pods by name,
// then active pods with idle workers in the order they joined the
// master; a busy, a draining and an unbooked worker are never picked.
func TestSelectDrainOrder(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	b := NewPods(nil, m, "p-", kubesim.PodSpec{})
	capacity := resources.New(1, 1024, 10)
	for _, id := range []string{"w-3", "w-1", "w-9", "w-2", "other", "w-4"} {
		if err := m.AddWorker(id, capacity); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"w-3", "w-1", "w-9", "w-4"} {
		b.Set(id, PodActive)
	}
	b.Set("w-2", PodDraining) // drain booked, master not yet told
	for _, name := range []string{"c-10", "c-2", "c-1"} {
		b.Set(name, PodCreating)
	}
	// One task occupies one of the active workers.
	m.Submit(wq.TaskSpec{Category: "x", Resources: resources.New(1, 1024, 10),
		Profile: wq.Profile{ExecDuration: time.Hour}})
	eng.RunFor(time.Second)
	var busy string
	for _, id := range m.Workers() {
		if m.WorkerBusy(id) {
			busy = id
		}
	}
	if busy == "" {
		t.Fatal("no worker took the task")
	}
	want := []string{"c-1", "c-10", "c-2"}
	for _, id := range []string{"w-3", "w-1", "w-9", "w-4"} {
		if id != busy {
			want = append(want, id)
		}
	}
	for n := 0; n <= len(want)+2; n++ {
		got := b.SelectDrain(n)
		if exp := want[:min(n, len(want))]; !slices.Equal(got, exp) {
			t.Fatalf("SelectDrain(%d) = %v, want %v (busy %s)", n, got, exp, busy)
		}
	}
	checkCounts(t, b, "after selection")
}

// TestPodsLifecycle walks one pod through the shared glue against a
// live cluster and master: Create, Connect once it runs, Drain and
// DrainWorker, and Release from the drain callback; a second pod is
// cancelled while still being created.
func TestPodsLifecycle(t *testing.T) {
	eng := simclock.NewEngine(t0)
	cluster := kubesim.NewCluster(eng, kubesim.Config{InitialNodes: 2, Seed: 1})
	t.Cleanup(cluster.Stop)
	m := wq.NewMaster(eng, nil)
	labels := map[string]string{"app": "test-worker"}
	b := NewPods(cluster, m, "tw-", kubesim.PodSpec{
		Image: WorkerImage, Resources: cluster.Config().NodeAllocatable, Labels: labels,
	})
	cluster.OnPod(func(ev kubesim.PodWatchEvent) {
		if st, ok := b.State(ev.Pod.Name); ok && st == PodCreating && ev.Reason == kubesim.ReasonStarted {
			b.Set(ev.Pod.Name, PodActive)
			if err := b.Connect(ev.Pod.Name, ev.Pod.Resources); err != nil {
				t.Error(err)
			}
		}
	})
	name, ok := b.Create()
	if !ok || name != "tw-1" || b.Seq() != 1 {
		t.Fatalf("Create = %q/%v, seq %d", name, ok, b.Seq())
	}
	eng.RunFor(time.Minute)
	if st, _ := b.State(name); st != PodActive {
		t.Fatalf("%s is %d after it started, want active", name, st)
	}
	if _, known := m.WorkerCapacity(name); !known {
		t.Fatalf("%s's worker never connected", name)
	}
	if b.Drain(name) != PodActive || !b.DrainWorker(name, func(name string) { b.Release(name) }) {
		t.Fatalf("drain of %s refused", name)
	}
	if b.Drain(name) != PodDraining {
		t.Fatal("second drain did something")
	}
	eng.RunFor(time.Second)
	if _, booked := b.State(name); booked {
		t.Fatalf("%s still booked after its drain", name)
	}
	if _, live := cluster.GetPod(name); live {
		t.Fatalf("%s still in the cluster after its release", name)
	}
	second, _ := b.Create()
	if b.Drain(second) != PodCreating || b.Len() != 0 {
		t.Fatalf("cancel of %s left %d pods booked", second, b.Len())
	}
	if _, live := cluster.GetPod(second); live {
		t.Fatalf("cancelled %s still in the cluster", second)
	}
	checkCounts(t, b, "after lifecycle")
}
