package core

import (
	"cmp"
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

// dispatchOrder copies the master's waiting tasks in dispatch order —
// the snapshot form of what the live view hands the planner.
func dispatchOrder(m *wq.Master) []wq.Task {
	var out []wq.Task
	m.ForEachWaiting(func(t *wq.Task) { out = append(out, *t) })
	return out
}

// activeWorkers lists the master's non-draining workers in join order.
func activeWorkers(m *wq.Master) []WorkerInfo {
	var out []WorkerInfo
	m.ForEachWorker(func(id string, capacity resources.Vector, draining bool) {
		if !draining {
			out = append(out, WorkerInfo{ID: id, Capacity: capacity})
		}
	})
	return out
}

// TestPlannerPlansInDispatchOrder pins the order Algorithm 1 walks the
// queue in: a large high-priority task submitted after small
// low-priority ones is planned first, as the master places it, not in
// submission order.
func TestPlannerPlansInDispatchOrder(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	small := wq.TaskSpec{Category: "small", Resources: resources.New(1, 1024, 0),
		Profile: wq.Profile{ExecDuration: 10 * time.Minute}}
	for i := 0; i < 3; i++ {
		m.Submit(small)
	}
	big := small
	big.Category, big.Resources, big.Priority = "big", resources.New(2, 1024, 0), 1
	bigID := m.Submit(big)

	in := baseInput()
	in.Estimator = &mapEstimator{dur: map[string]time.Duration{"small": 10 * time.Minute, "big": 10 * time.Minute}}
	in.Workers = []WorkerInfo{{ID: "w1", Capacity: nodeCap}}
	in.Tasks = m
	var p Planner
	got := p.EstimateScale(in)

	in.Tasks = nil
	in.Waiting = dispatchOrder(m)
	if want := ReferenceEstimateScale(in); got != want {
		t.Fatalf("planner %+v, reference over dispatch order %+v", got, want)
	}
	if got.UnplacedWaiting != 2 {
		t.Errorf("UnplacedWaiting = %d, want 2 (big and one small fill w1)", got.UnplacedWaiting)
	}
	in.Waiting = m.WaitingTasks()
	if fifo := ReferenceEstimateScale(in); fifo == got {
		t.Fatalf("submission order plans the same %+v; the test no longer separates the orders", fifo)
	}

	// The master agrees: on the same worker it places big first.
	if err := m.AddWorker("w1", nodeCap); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	if tk, _ := m.Task(bigID); tk.State != wq.TaskRunning {
		t.Errorf("big task is %v after dispatch, want running", tk.State)
	}
}

// TestLiveViewDifferential drives a real master through submissions
// at mixed priorities, dispatch, completions, worker kills, drains,
// fast-aborts, retry backoffs, cancellations and crash/restore with
// rescue, and at random instants requires the planner reading the
// live master to decide exactly as the planner and the per-task
// reference do on copied snapshots (running by ID, waiting in dispatch
// order), with both a zero and a normal planning window.
func TestLiveViewDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { liveViewDifferential(t, seed) })
	}
}

func liveViewDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := simclock.NewEngine(t0)
	m := wq.NewMaster(eng, nil)
	est := &mapEstimator{
		res: map[string]resources.Vector{
			"a":    resources.New(1, 3000, 0),
			"b":    resources.New(2, 2048, 0),
			"zero": {},
		},
		dur: map[string]time.Duration{
			"a":     time.Minute,
			"b":     90 * time.Second,
			"zero":  45 * time.Second,
			"decl":  2 * time.Minute,
			"nores": time.Minute,
		},
	}
	m.SetEstimator(est)
	m.SetRetryPolicy(wq.RetryPolicy{MaxAttempts: 4, BackoffBase: 5 * time.Second, FastAbortMultiplier: 3})
	cats := []string{"a", "b", "zero", "decl", "nores", "mystery"}

	var live, snap Planner
	compare := func(step int) {
		t.Helper()
		for _, initTime := range []time.Duration{0, 160 * time.Second} {
			in := EstimateInput{
				Now:            eng.Now(),
				InitTime:       initTime,
				DefaultCycle:   30 * time.Second,
				Estimator:      est,
				Workers:        activeWorkers(m),
				WorkerTemplate: nodeCap,
				Tasks:          m,
			}
			got := live.EstimateScale(in)
			in.Tasks = nil
			in.Running = m.RunningTasks()
			// Sorted here, not trusted: the oracle must not share the
			// master's ordering.
			slices.SortFunc(in.Running, func(x, y wq.Task) int { return cmp.Compare(x.ID, y.ID) })
			in.Waiting = dispatchOrder(m)
			want := snap.EstimateScale(in)
			ref := ReferenceEstimateScale(in)
			if got != want || got != ref {
				t.Fatalf("seed %d step %d init %v: live %+v, snapshot %+v, reference %+v (running %d, waiting %d, workers %d)",
					seed, step, initTime, got, want, ref, len(in.Running), len(in.Waiting), len(in.Workers))
			}
		}
	}

	var ids []int
	nextWorker := 0
	addWorker := func() {
		nextWorker++
		capacity := nodeCap
		if rng.Intn(3) == 0 {
			capacity = resources.New(8, 32768, 100000)
		}
		if err := m.AddWorker(fmt.Sprintf("w%d", nextWorker), capacity); err != nil {
			t.Fatal(err)
		}
	}
	pickWorker := func() (string, bool) {
		ws := activeWorkers(m)
		if len(ws) == 0 {
			return "", false
		}
		return ws[rng.Intn(len(ws))].ID, true
	}
	for i := 0; i < 4; i++ {
		addWorker()
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(100); {
		case op < 45:
			for n := 1 + rng.Intn(8); n > 0; n-- {
				cat := cats[rng.Intn(len(cats))]
				spec := wq.TaskSpec{
					Category: cat,
					Priority: rng.Intn(2),
					Profile: wq.Profile{
						ExecDuration: time.Duration(5+rng.Intn(240)) * time.Second,
						UsedCPUMilli: 800, UsedMemoryMB: 1024,
					},
				}
				if cat == "decl" {
					spec.Resources = resources.New(float64(1+rng.Intn(2)), 2048, 0)
				}
				if id := m.Submit(spec); id != 0 {
					ids = append(ids, id)
				}
			}
		case op < 55:
			addWorker()
		case op < 62:
			if id, ok := pickWorker(); ok {
				_ = m.KillWorker(id)
			}
		case op < 68:
			if id, ok := pickWorker(); ok {
				_ = m.DrainWorker(id, nil)
			}
		case op < 73:
			if len(ids) > 0 {
				_ = m.Cancel(ids[rng.Intn(len(ids))])
			}
		case op < 76:
			// Crash and restore; a random subset of workers reattaches
			// (rescue), the rest expire into backoff retries.
			snapshot, workers := m.Crash()
			eng.RunFor(time.Duration(rng.Intn(20)) * time.Second)
			compare(step)
			m.Restore(snapshot, time.Duration(rng.Intn(60))*time.Second)
			for _, w := range workers {
				if rng.Intn(4) != 0 {
					_ = m.AttachWorker(w)
				}
			}
		}
		compare(step)
		eng.RunFor(time.Duration(rng.Intn(30)) * time.Second)
		compare(step)
	}
}

// TestAutoscalerDecideZeroAlloc pins the live view end to end: a warmed
// autoscaler deciding against a busy master — per-cycle and on the
// panic path — allocates nothing.
func TestAutoscalerDecideZeroAlloc(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 8, MaxNodes: 8}, Config{InitialWorkers: 8})
	s.eng.RunFor(time.Minute)
	for i := 0; i < 200; i++ {
		s.a.Submit(wq.TaskSpec{
			Category:  fmt.Sprintf("c%d", i%4),
			Resources: resources.New(1, 1024, 0),
			Profile:   wq.Profile{ExecDuration: time.Duration(30+i%90) * time.Second, UsedCPUMilli: 900},
		})
	}
	s.eng.RunFor(2 * time.Minute)
	if st := s.master.Stats(); st.Running == 0 || st.Waiting == 0 {
		t.Fatalf("master not busy: %+v", st)
	}
	s.a.decide() // warm the scratch state
	s.a.instantShortage()
	if avg := testing.AllocsPerRun(20, func() { s.a.decide() }); avg != 0 {
		t.Errorf("decide allocates %.1f times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { s.a.instantShortage() }); avg != 0 {
		t.Errorf("instantShortage allocates %.1f times per run, want 0", avg)
	}
}
