package core

import (
	"testing"
	"testing/quick"
	"time"

	"hta/internal/resources"
	"hta/internal/wq"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

var nodeCap = resources.New(3, 12288, 100000)

type mapEstimator struct {
	res map[string]resources.Vector
	dur map[string]time.Duration
}

func (m *mapEstimator) EstimateResources(cat string) (resources.Vector, bool) {
	v, ok := m.res[cat]
	return v, ok
}

func (m *mapEstimator) EstimateExecTime(cat string) (time.Duration, bool) {
	d, ok := m.dur[cat]
	return d, ok
}

func baseInput() EstimateInput {
	return EstimateInput{
		Now:            t0,
		InitTime:       160 * time.Second,
		DefaultCycle:   30 * time.Second,
		WorkerTemplate: nodeCap,
		Estimator: &mapEstimator{
			res: map[string]resources.Vector{"c": resources.New(1, 3800, 0)},
			dur: map[string]time.Duration{"c": 60 * time.Second},
		},
	}
}

func waiting(n int, cat string) []wq.Task {
	out := make([]wq.Task, n)
	for i := range out {
		out[i] = wq.Task{ID: 100 + i, TaskSpec: wq.TaskSpec{Category: cat}}
	}
	return out
}

func running(worker string, cat string, started time.Time, alloc resources.Vector) wq.Task {
	return wq.Task{
		TaskSpec:  wq.TaskSpec{Category: cat},
		WorkerID:  worker,
		StartedAt: started,
		Allocated: alloc,
	}
}

func TestEmptyQueueDrainsIdleWorkers(t *testing.T) {
	in := baseInput()
	in.Workers = []WorkerInfo{{ID: "w1", Capacity: nodeCap}}
	dec := EstimateScale(in)
	if dec.ScaleChange != -1 || dec.NextCycle != 30*time.Second {
		t.Errorf("decision = %+v, want drain idle / default-cycle", dec)
	}
}

func TestEmptyQueueKeepsBusyWorkers(t *testing.T) {
	in := baseInput()
	in.Workers = []WorkerInfo{{ID: "w1", Capacity: nodeCap}}
	est := in.Estimator.(*mapEstimator)
	est.dur["c"] = time.Hour // outlives the window
	in.Running = []wq.Task{running("w1", "c", t0, resources.New(1, 3800, 0))}
	dec := EstimateScale(in)
	if dec.ScaleChange != 0 {
		t.Errorf("ScaleChange = %d, want 0 (worker busy past window)", dec.ScaleChange)
	}
}

func TestShortageScalesUp(t *testing.T) {
	in := baseInput()
	// No workers, 9 one-core tasks: 3 fit per node-sized worker.
	in.Waiting = waiting(9, "c")
	dec := EstimateScale(in)
	if dec.ScaleChange != 3 {
		t.Errorf("ScaleChange = %d, want 3", dec.ScaleChange)
	}
	if dec.NextCycle != in.InitTime {
		t.Errorf("NextCycle = %v, want init time", dec.NextCycle)
	}
	if dec.UnplacedWaiting != 9 {
		t.Errorf("UnplacedWaiting = %d", dec.UnplacedWaiting)
	}
}

func TestMemoryBoundPacking(t *testing.T) {
	in := baseInput()
	// 3800 MB tasks: memory admits 3 per 12288 MB worker, CPU admits
	// 3 — consistent; 7 tasks need 3 workers.
	in.Waiting = waiting(7, "c")
	dec := EstimateScale(in)
	if dec.ScaleChange != 3 {
		t.Errorf("ScaleChange = %d, want 3", dec.ScaleChange)
	}
}

func TestRunningCompletionsAbsorbQueue(t *testing.T) {
	in := baseInput()
	in.Workers = []WorkerInfo{{ID: "w1", Capacity: nodeCap}}
	// Three running tasks started 30 s ago (60 s mean ⇒ done in 30 s,
	// inside the 160 s window) plus three waiting: the waiting tasks
	// reuse the freed capacity, and they too finish inside the window.
	started := t0.Add(-30 * time.Second)
	alloc := resources.New(1, 3800, 0)
	for _, id := range []string{"a", "b", "c"} {
		_ = id
		in.Running = append(in.Running, running("w1", "c", started, alloc))
	}
	in.Waiting = waiting(3, "c")
	dec := EstimateScale(in)
	// Queue absorbed; the lone worker then sits idle at the window
	// end, so the greedy policy releases it.
	if dec.ScaleChange != -1 {
		t.Errorf("ScaleChange = %d, want -1 (absorbed, then idle)", dec.ScaleChange)
	}
}

func TestLongQueueStillScalesDespiteCompletions(t *testing.T) {
	in := baseInput()
	in.Workers = []WorkerInfo{{ID: "w1", Capacity: nodeCap}}
	started := t0.Add(-30 * time.Second)
	alloc := resources.New(1, 3800, 0)
	for i := 0; i < 3; i++ {
		in.Running = append(in.Running, running("w1", "c", started, alloc))
	}
	// 60 waiting one-minute tasks: one worker turns over ~3 slots
	// every 60 s; within 160 s it absorbs ~9-12, leaving ~50 → ~17
	// new workers.
	in.Waiting = waiting(60, "c")
	dec := EstimateScale(in)
	if dec.ScaleChange < 10 {
		t.Errorf("ScaleChange = %d, want substantial scale-up", dec.ScaleChange)
	}
}

func TestIdleWorkersScaleDown(t *testing.T) {
	in := baseInput()
	in.Workers = []WorkerInfo{
		{ID: "w1", Capacity: nodeCap},
		{ID: "w2", Capacity: nodeCap},
		{ID: "w3", Capacity: nodeCap},
	}
	// One long-running task on w1 that outlives the window; a waiting
	// task too big to fit anywhere (oversized estimate) keeps the
	// queue non-empty, while w2/w3 sit idle.
	est := in.Estimator.(*mapEstimator)
	est.res["huge"] = resources.New(64, 1, 1)
	est.dur["c"] = time.Hour
	in.Running = []wq.Task{running("w1", "c", t0, nodeCap)}
	in.Waiting = waiting(1, "huge")
	dec := EstimateScale(in)
	if dec.ScaleChange != -2 {
		t.Errorf("ScaleChange = %d, want -2 (w2, w3 idle)", dec.ScaleChange)
	}
	if dec.PredictedIdleWorkers != 2 {
		t.Errorf("PredictedIdleWorkers = %d", dec.PredictedIdleWorkers)
	}
}

func TestUnknownCategoryConservative(t *testing.T) {
	in := baseInput()
	// Unknown category: each task assumed to need a whole worker.
	in.Waiting = waiting(4, "mystery")
	dec := EstimateScale(in)
	if dec.ScaleChange != 4 {
		t.Errorf("ScaleChange = %d, want 4 exclusive workers", dec.ScaleChange)
	}
}

func TestUnknownRunningTaskHoldsAllocationPastWindow(t *testing.T) {
	in := baseInput()
	in.Workers = []WorkerInfo{{ID: "w1", Capacity: nodeCap}}
	// A warm-up probe with no measurements holds the whole worker;
	// 3 known waiting tasks need a new worker.
	in.Running = []wq.Task{running("w1", "mystery", t0, nodeCap)}
	in.Waiting = waiting(3, "c")
	dec := EstimateScale(in)
	if dec.ScaleChange != 1 {
		t.Errorf("ScaleChange = %d, want 1", dec.ScaleChange)
	}
}

// A zero Now is the time-free estimate the arbiter's demand digest
// runs: a running task of a known category holds its worker even with
// a zero-length window. Measuring its elapsed time against the zero
// time used to overflow, predict it finished, and release the worker.
func TestZeroNowRunningTaskHoldsWorker(t *testing.T) {
	in := baseInput()
	in.Now = time.Time{}
	in.InitTime = 0
	in.Workers = []WorkerInfo{{ID: "w1", Capacity: nodeCap}}
	in.Running = []wq.Task{running("w1", "c", t0, resources.New(1, 3800, 0))}
	for name, dec := range map[string]Decision{
		"planner":   EstimateScale(in),
		"reference": ReferenceEstimateScale(in),
	} {
		if dec.ScaleChange != 0 {
			t.Errorf("%s: ScaleChange = %d, want 0 (the busy worker holds)", name, dec.ScaleChange)
		}
	}
}

func TestDeclaredResourcesBypassEstimator(t *testing.T) {
	in := baseInput()
	in.Estimator = nil
	w := waiting(6, "whatever")
	for i := range w {
		w[i].Resources = resources.New(1, 4096, 0)
	}
	in.Waiting = w
	dec := EstimateScale(in)
	if dec.ScaleChange != 2 {
		t.Errorf("ScaleChange = %d, want 2 (3 × 1c/4GB per node)", dec.ScaleChange)
	}
}

func TestOversizedTaskClampedToWholeWorker(t *testing.T) {
	in := baseInput()
	est := in.Estimator.(*mapEstimator)
	est.res["big"] = resources.New(8, 1, 1) // larger than any node
	in.Waiting = waiting(2, "big")
	dec := EstimateScale(in)
	if dec.ScaleChange != 2 {
		t.Errorf("ScaleChange = %d, want 2 whole workers", dec.ScaleChange)
	}
}

func TestRunningOnDrainingWorkerIgnored(t *testing.T) {
	in := baseInput()
	// Task on a worker not in the active list must not corrupt pools.
	in.Running = []wq.Task{running("ghost", "c", t0, resources.New(1, 3800, 0))}
	in.Waiting = waiting(3, "c")
	dec := EstimateScale(in)
	if dec.ScaleChange != 1 {
		t.Errorf("ScaleChange = %d, want 1", dec.ScaleChange)
	}
}

func TestDispatchedTasksCompleteWithinWindow(t *testing.T) {
	in := baseInput()
	in.InitTime = 200 * time.Second
	in.Workers = []WorkerInfo{{ID: "w1", Capacity: nodeCap}}
	// 6 waiting 60 s tasks on one 3-slot worker: waves at 0 s and
	// 60 s, all done by 120 s < 200 s ⇒ no scale-up; the worker is
	// idle at the window end and may be released.
	in.Waiting = waiting(6, "c")
	dec := EstimateScale(in)
	if dec.ScaleChange > 0 {
		t.Errorf("ScaleChange = %d, want no scale-up", dec.ScaleChange)
	}
	if dec.UnplacedWaiting != 0 {
		t.Errorf("UnplacedWaiting = %d", dec.UnplacedWaiting)
	}
}

func TestDefaultCycleDefaulted(t *testing.T) {
	in := baseInput()
	in.DefaultCycle = 0
	in.Workers = []WorkerInfo{{ID: "w1", Capacity: nodeCap}}
	dec := EstimateScale(in)
	if dec.NextCycle != 30*time.Second {
		t.Errorf("NextCycle = %v, want defaulted 30s", dec.NextCycle)
	}
}

// Property: for any mix of waiting tasks and workers, Algorithm 1's
// scale-up never exceeds one worker per waiting task, its scale-down
// never exceeds the worker count, and the decision is deterministic.
func TestPropertyEstimateBounds(t *testing.T) {
	f := func(nWaiting, nWorkers, nRunning uint8, initSecs uint16) bool {
		in := baseInput()
		in.InitTime = time.Duration(initSecs%600+10) * time.Second
		w := int(nWaiting % 100)
		in.Waiting = waiting(w, "c")
		for i := 0; i < int(nWorkers%20); i++ {
			in.Workers = append(in.Workers, WorkerInfo{
				ID: string(rune('a' + i)), Capacity: nodeCap,
			})
		}
		alloc := resources.New(1, 3800, 0)
		for i := 0; i < int(nRunning%30) && len(in.Workers) > 0; i++ {
			wid := in.Workers[i%len(in.Workers)].ID
			in.Running = append(in.Running, running(wid, "c", t0.Add(-time.Duration(i)*time.Second), alloc))
		}
		// Skip physically impossible snapshots (more allocation than
		// capacity on a worker).
		perWorker := make(map[string]int)
		for _, r := range in.Running {
			perWorker[r.WorkerID]++
			if perWorker[r.WorkerID] > 3 {
				return true
			}
		}
		d1 := EstimateScale(in)
		d2 := EstimateScale(in)
		if d1 != d2 {
			return false // non-deterministic
		}
		if d1.ScaleChange > w {
			return false // never more than one new worker per task
		}
		if d1.ScaleChange < -len(in.Workers) {
			return false // cannot drain more workers than exist
		}
		return d1.NextCycle > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: adding workers never increases the scale-up request.
func TestPropertyMoreWorkersLessScaleUp(t *testing.T) {
	f := func(nWaiting uint8, extra uint8) bool {
		base := baseInput()
		base.Waiting = waiting(int(nWaiting%60)+1, "c")
		small := EstimateScale(base)

		more := baseInput()
		more.Waiting = waiting(int(nWaiting%60)+1, "c")
		for i := 0; i <= int(extra%10); i++ {
			more.Workers = append(more.Workers, WorkerInfo{
				ID: string(rune('a' + i)), Capacity: nodeCap,
			})
		}
		bigger := EstimateScale(more)
		return bigger.ScaleChange <= small.ScaleChange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
