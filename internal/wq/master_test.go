package wq

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hta/internal/netsim"
	"hta/internal/resources"
	"hta/internal/simclock"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func newMaster(t *testing.T) (*simclock.Engine, *Master) {
	t.Helper()
	eng := simclock.NewEngine(t0)
	return eng, NewMaster(eng, nil)
}

// results collects the Task of every Result the master delivers, by
// ID. A completed task's record leaves the master once its
// subscribers have run, so tests read finished tasks from what
// OnComplete delivered.
func results(m *Master) map[int]Task {
	got := make(map[int]Task)
	m.OnComplete(func(r Result) { got[r.Task.ID] = r.Task })
	return got
}

func knownTask(cat string, cores float64, d time.Duration) TaskSpec {
	return TaskSpec{
		Category:  cat,
		Resources: resources.New(cores, 1024, 100),
		Profile: Profile{
			ExecDuration: d,
			UsedCPUMilli: int64(cores * 900),
			UsedMemoryMB: 512,
		},
	}
}

func TestSubmitAndComplete(t *testing.T) {
	eng, m := newMaster(t)
	var done []Result
	m.OnComplete(func(r Result) { done = append(done, r) })
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	id := m.Submit(knownTask("align", 1, 10*time.Second))
	eng.Run()
	if len(done) != 1 {
		t.Fatalf("completions = %d", len(done))
	}
	r := done[0].Task
	if r.ID != id || r.State != TaskComplete || r.WorkerID != "w1" {
		t.Errorf("result = %+v", r)
	}
	if r.ExecWall != 10*time.Second {
		t.Errorf("ExecWall = %v", r.ExecWall)
	}
	if r.Attempts != 1 || r.Exclusive {
		t.Errorf("Attempts=%d Exclusive=%v", r.Attempts, r.Exclusive)
	}
	if r.Measured.MilliCPU != 900 {
		t.Errorf("Measured = %v", r.Measured)
	}
	if r.FinishedAt.IsZero() || r.SubmittedAt.IsZero() {
		t.Errorf("timestamps: submitted %v finished %v", r.SubmittedAt, r.FinishedAt)
	}
	if _, held := m.Task(id); held {
		t.Error("completed task still held after its subscribers ran")
	}
}

func TestPackingMultipleTasksPerWorker(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	for i := 0; i < 3; i++ {
		m.Submit(knownTask("align", 1, 10*time.Second))
	}
	eng.RunFor(time.Second)
	s := m.Stats()
	if s.Running != 3 || s.Waiting != 0 {
		t.Fatalf("stats = %+v, want all 3 running concurrently", s)
	}
	eng.Run()
	if m.CompletedCount() != 3 {
		t.Fatalf("completed = %d", m.CompletedCount())
	}
	if eng.Elapsed() != 10*time.Second {
		t.Errorf("elapsed = %v, want 10s (parallel)", eng.Elapsed())
	}
}

func TestOverflowQueues(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(2, 12288, 1000))
	for i := 0; i < 4; i++ {
		m.Submit(knownTask("align", 1, 10*time.Second))
	}
	eng.RunFor(time.Second)
	s := m.Stats()
	if s.Running != 2 || s.Waiting != 2 {
		t.Fatalf("stats = %+v", s)
	}
	eng.Run()
	if eng.Elapsed() != 20*time.Second {
		t.Errorf("elapsed = %v, want 20s (two waves)", eng.Elapsed())
	}
}

func TestUnknownResourcesRunExclusively(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	m.AddWorker("w2", resources.New(3, 12288, 1000))
	spec := TaskSpec{Category: "x", Profile: Profile{ExecDuration: 10 * time.Second, UsedCPUMilli: 800}}
	for i := 0; i < 3; i++ {
		m.Submit(spec)
	}
	eng.RunFor(time.Second)
	s := m.Stats()
	if s.Running != 2 || s.Waiting != 1 {
		t.Fatalf("stats = %+v, want one exclusive task per worker", s)
	}
	for _, task := range m.RunningTasks() {
		if !task.Exclusive {
			t.Errorf("task %d not exclusive", task.ID)
		}
		if task.Allocated != resources.New(3, 12288, 1000) {
			t.Errorf("allocation = %v, want whole worker", task.Allocated)
		}
	}
	eng.Run()
	if eng.Elapsed() != 20*time.Second {
		t.Errorf("elapsed = %v, want 20s", eng.Elapsed())
	}
}

type fixedEstimator struct {
	res map[string]resources.Vector
	dur map[string]time.Duration
}

func (f *fixedEstimator) EstimateResources(cat string) (resources.Vector, bool) {
	v, ok := f.res[cat]
	return v, ok
}

func (f *fixedEstimator) EstimateExecTime(cat string) (time.Duration, bool) {
	d, ok := f.dur[cat]
	return d, ok
}

func TestEstimatorEnablesPacking(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	m.SetEstimator(&fixedEstimator{res: map[string]resources.Vector{
		"align": resources.New(1, 4096, 100),
	}})
	spec := TaskSpec{Category: "align", Profile: Profile{ExecDuration: 10 * time.Second, UsedCPUMilli: 900}}
	for i := 0; i < 3; i++ {
		m.Submit(spec)
	}
	eng.RunFor(time.Second)
	if s := m.Stats(); s.Running != 3 {
		t.Fatalf("stats = %+v, want estimator-driven packing of 3", s)
	}
	eng.Run()
	if eng.Elapsed() != 10*time.Second {
		t.Errorf("elapsed = %v", eng.Elapsed())
	}
}

func TestBackfillAroundBlockedHead(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(2, 8192, 1000))
	big := knownTask("big", 2, 10*time.Second)
	small := knownTask("small", 1, 5*time.Second)
	m.Submit(big)   // runs
	m.Submit(big)   // blocked: no room
	m.Submit(small) // backfills? no: w1 full (2 cores used)
	eng.RunFor(time.Second)
	if s := m.Stats(); s.Running != 1 || s.Waiting != 2 {
		t.Fatalf("stats = %+v", s)
	}
	m.AddWorker("w2", resources.New(1, 8192, 1000)) // fits small only
	eng.RunFor(2 * time.Second)
	if s := m.Stats(); s.Running != 2 || s.Waiting != 1 {
		t.Fatalf("after w2: %+v, want small backfilled around blocked big", s)
	}
	eng.Run()
}

func TestDrainWorker(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	m.Submit(knownTask("a", 1, 10*time.Second))
	eng.RunFor(time.Second)
	drained := false
	var drainedAt time.Duration
	var drainedID string
	if err := m.DrainWorker("w1", func(id string) { drained = true; drainedAt = eng.Elapsed(); drainedID = id }); err != nil {
		t.Fatal(err)
	}
	// New tasks must not land on the draining worker.
	m.Submit(knownTask("a", 1, 10*time.Second))
	eng.Run()
	if !drained {
		t.Fatal("drain callback never fired")
	}
	if drainedAt != 10*time.Second {
		t.Errorf("drained at %v, want 10s (after running task)", drainedAt)
	}
	if drainedID != "w1" {
		t.Errorf("drain callback got worker %q, want w1", drainedID)
	}
	s := m.Stats()
	if s.Workers != 0 {
		t.Errorf("workers = %d, want 0 after drain", s.Workers)
	}
	if s.Waiting != 1 || m.CompletedCount() != 1 {
		t.Errorf("stats = %+v completed=%d; second task must still wait", s, m.CompletedCount())
	}
}

func TestDrainIdleWorkerImmediate(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	drained := false
	m.DrainWorker("w1", func(string) { drained = true })
	eng.Run()
	if !drained {
		t.Fatal("idle drain did not fire")
	}
	if eng.Elapsed() != 0 {
		t.Errorf("elapsed = %v", eng.Elapsed())
	}
}

func TestKillWorkerRequeuesTasks(t *testing.T) {
	eng, m := newMaster(t)
	done := results(m)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	id1 := m.Submit(knownTask("a", 1, 100*time.Second))
	id2 := m.Submit(knownTask("a", 1, 100*time.Second))
	eng.RunFor(10 * time.Second)
	if err := m.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Workers != 0 || s.Running != 0 || s.Waiting != 2 {
		t.Fatalf("stats after kill = %+v", s)
	}
	// Requeued tasks must retain submission order at the queue head.
	w := m.WaitingTasks()
	if w[0].ID != id1 || w[1].ID != id2 {
		t.Errorf("queue order = %d,%d", w[0].ID, w[1].ID)
	}
	// A new worker picks them up; attempts increment.
	m.AddWorker("w2", resources.New(3, 12288, 1000))
	eng.Run()
	if m.CompletedCount() != 2 {
		t.Fatalf("completed = %d", m.CompletedCount())
	}
	first := done[id1]
	if first.State != TaskComplete || first.Attempts != 2 {
		t.Errorf("state = %v attempts = %d, want complete after 2", first.State, first.Attempts)
	}
	if first.WorkerID != "w2" {
		t.Errorf("worker = %s", first.WorkerID)
	}
}

func TestWorkerErrors(t *testing.T) {
	_, m := newMaster(t)
	if err := m.AddWorker("", resources.Vector{MilliCPU: 1000}); err == nil {
		t.Error("empty id should fail")
	}
	if err := m.AddWorker("w", resources.Zero); err == nil {
		t.Error("zero capacity should fail")
	}
	m.AddWorker("w", resources.Vector{MilliCPU: 1000})
	if err := m.AddWorker("w", resources.Vector{MilliCPU: 1000}); err == nil {
		t.Error("duplicate should fail")
	}
	if err := m.DrainWorker("nope", nil); err == nil {
		t.Error("unknown drain should fail")
	}
	if err := m.KillWorker("nope"); err == nil {
		t.Error("unknown kill should fail")
	}
}

func TestWorkerUsageSignal(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	spec := knownTask("a", 1, 10*time.Second)
	spec.Profile.UsedCPUMilli = 900
	m.Submit(spec)
	m.Submit(spec)
	eng.RunFor(time.Second)
	u := m.WorkerUsage("w1")
	if u.MilliCPU != 1800 {
		t.Errorf("usage = %v, want 1800 millicores", u)
	}
	if !m.WorkerBusy("w1") {
		t.Error("WorkerBusy = false")
	}
	eng.Run()
	if got := m.WorkerUsage("w1"); !got.IsZero() {
		t.Errorf("idle usage = %v", got)
	}
	if got := m.WorkerUsage("nope"); !got.IsZero() {
		t.Errorf("unknown worker usage = %v", got)
	}
}

func TestUsageClampedToAllocation(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	spec := knownTask("a", 1, 10*time.Second)
	spec.Profile.UsedCPUMilli = 5000 // profile exceeds the 1-core allocation
	m.Submit(spec)
	eng.RunFor(time.Second)
	if u := m.WorkerUsage("w1"); u.MilliCPU != 1000 {
		t.Errorf("usage = %v, want clamp to 1000m", u)
	}
	eng.Run()
}

func TestSharedInputFetchedOncePerWorker(t *testing.T) {
	eng := simclock.NewEngine(t0)
	link := netsim.NewLink(eng, 100, 0)
	m := NewMaster(eng, link)
	m.AddWorker("w1", resources.New(3, 12288, 100000))
	db := File{Name: "nt.db", SizeMB: 1400}
	spec := knownTask("align", 1, 10*time.Second)
	spec.SharedInputs = []File{db}
	for i := 0; i < 3; i++ {
		m.Submit(spec)
	}
	eng.Run()
	st := link.Stats()
	// The 1.4 GB database moves exactly once.
	if st.DeliveredMB < 1399 || st.DeliveredMB > 1401 {
		t.Errorf("delivered = %v MB, want ≈1400", st.DeliveredMB)
	}
	// 14 s transfer + 10 s exec.
	if eng.Elapsed() != 24*time.Second {
		t.Errorf("elapsed = %v, want 24s", eng.Elapsed())
	}
}

func TestSharedInputRefetchedOnNewWorker(t *testing.T) {
	eng := simclock.NewEngine(t0)
	link := netsim.NewLink(eng, 100, 0)
	m := NewMaster(eng, link)
	db := File{Name: "nt.db", SizeMB: 700}
	spec := knownTask("align", 3, 10*time.Second)
	spec.SharedInputs = []File{db}
	m.AddWorker("w1", resources.New(3, 12288, 100000))
	m.AddWorker("w2", resources.New(3, 12288, 100000))
	m.Submit(spec)
	m.Submit(spec)
	eng.Run()
	st := link.Stats()
	if st.DeliveredMB < 1399 || st.DeliveredMB > 1401 {
		t.Errorf("delivered = %v MB, want ≈1400 (one copy per worker)", st.DeliveredMB)
	}
}

func TestPrivateInputAndOutputTransfers(t *testing.T) {
	eng := simclock.NewEngine(t0)
	link := netsim.NewLink(eng, 100, 0)
	m := NewMaster(eng, link)
	m.AddWorker("w1", resources.New(3, 12288, 100000))
	spec := knownTask("a", 1, 10*time.Second)
	spec.InputMB = 100 // 1 s in
	spec.OutputMB = 50 // 0.5 s out
	m.Submit(spec)
	eng.Run()
	want := 11500 * time.Millisecond
	if eng.Elapsed() != want {
		t.Errorf("elapsed = %v, want %v", eng.Elapsed(), want)
	}
}

func TestKillWorkerDuringTransfer(t *testing.T) {
	eng := simclock.NewEngine(t0)
	link := netsim.NewLink(eng, 100, 0)
	m := NewMaster(eng, link)
	done := results(m)
	m.AddWorker("w1", resources.New(3, 12288, 100000))
	spec := knownTask("a", 1, 10*time.Second)
	spec.SharedInputs = []File{{Name: "db", SizeMB: 1000}}
	id := m.Submit(spec)
	eng.RunFor(2 * time.Second) // mid-transfer
	m.KillWorker("w1")
	if link.Active() != 0 {
		t.Errorf("active transfers after kill = %d", link.Active())
	}
	m.AddWorker("w2", resources.New(3, 12288, 100000))
	eng.Run()
	task := done[id]
	if task.State != TaskComplete || task.WorkerID != "w2" || task.Attempts != 2 {
		t.Errorf("task = %+v", task)
	}
}

func TestStatsIdleAndDraining(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(3, 12288, 1000))
	m.AddWorker("w2", resources.New(3, 12288, 1000))
	m.AddWorker("w3", resources.New(3, 12288, 1000))
	m.Submit(knownTask("a", 1, 50*time.Second))
	eng.RunFor(time.Second)
	m.DrainWorker("w2", nil)
	eng.RunFor(time.Second)
	s := m.Stats()
	if s.Workers != 2 || s.IdleWorkers != 1 || s.DrainingWorkers != 0 {
		t.Errorf("stats = %+v (w2 idle-drained immediately; w3 idle)", s)
	}
	// Drain the busy one: stays in roster as draining.
	m.DrainWorker("w1", nil)
	s = m.Stats()
	if s.DrainingWorkers != 1 {
		t.Errorf("draining = %d, want 1", s.DrainingWorkers)
	}
	eng.Run()
}

func TestWaitingAndRunningSnapshots(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(1, 12288, 1000))
	a := m.Submit(knownTask("a", 1, 10*time.Second))
	b := m.Submit(knownTask("b", 1, 10*time.Second))
	eng.RunFor(time.Second)
	r := m.RunningTasks()
	w := m.WaitingTasks()
	if len(r) != 1 || r[0].ID != a {
		t.Errorf("running = %v", r)
	}
	if len(w) != 1 || w[0].ID != b {
		t.Errorf("waiting = %v", w)
	}
	eng.Run()
}

func TestTaskNotFound(t *testing.T) {
	_, m := newMaster(t)
	if _, ok := m.Task(42); ok {
		t.Error("Task(42) should not exist")
	}
}

// Property: for any workload of known-size tasks and any worker
// fleet, every task completes exactly once, capacity is never
// oversubscribed, and the pool balances to zero at the end.
func TestPropertyAllTasksCompleteOnce(t *testing.T) {
	f := func(taskSeeds []uint8, workerSeeds []uint8) bool {
		if len(workerSeeds) == 0 {
			workerSeeds = []uint8{3}
		}
		if len(taskSeeds) > 60 {
			taskSeeds = taskSeeds[:60]
		}
		if len(workerSeeds) > 8 {
			workerSeeds = workerSeeds[:8]
		}
		eng := simclock.NewEngine(t0)
		m := NewMaster(eng, nil)
		for i, ws := range workerSeeds {
			cores := float64(ws%3) + 2
			if err := m.AddWorker(string(rune('a'+i)), resources.New(cores, 8192, 1000)); err != nil {
				return false
			}
		}
		completions := make(map[int]int)
		m.OnComplete(func(r Result) { completions[r.Task.ID]++ })
		for _, ts := range taskSeeds {
			cores := float64(ts%2) + 1
			d := time.Duration(ts%20+1) * time.Second
			m.Submit(knownTask("c", cores, d))
		}
		eng.Run()
		if m.CompletedCount() != len(taskSeeds) {
			return false
		}
		for _, n := range completions {
			if n != 1 {
				return false
			}
		}
		s := m.Stats()
		return s.Waiting == 0 && s.Running == 0 && s.InUse.IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: killing workers at arbitrary times never loses tasks —
// with a fresh worker added afterwards, everything still completes.
func TestPropertyKillNeverLosesTasks(t *testing.T) {
	f := func(nTasks uint8, killAfter uint8) bool {
		n := int(nTasks%30) + 1
		eng := simclock.NewEngine(t0)
		m := NewMaster(eng, nil)
		m.AddWorker("w1", resources.New(3, 12288, 1000))
		for i := 0; i < n; i++ {
			m.Submit(knownTask("c", 1, 10*time.Second))
		}
		eng.RunFor(time.Duration(killAfter%40) * time.Second)
		m.KillWorker("w1")
		m.AddWorker("w2", resources.New(3, 12288, 1000))
		eng.Run()
		return m.CompletedCount() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPriorityOrdering(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(1, 12288, 1000))
	low := knownTask("low", 1, 10*time.Second)
	high := knownTask("high", 1, 10*time.Second)
	high.Priority = 10
	lowID := m.Submit(low)
	low2ID := m.Submit(low)
	highID := m.Submit(high)
	var order []int
	m.OnComplete(func(r Result) { order = append(order, r.Task.ID) })
	eng.Run()
	// All three are queued when the first dispatch pass runs (the
	// pass is a coalesced event), so the high-priority task runs
	// first, then the low ones in submission order.
	want := []int{highID, lowID, low2ID}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
}

func TestPriorityTieKeepsFIFO(t *testing.T) {
	eng, m := newMaster(t)
	a := m.Submit(knownTask("a", 1, 10*time.Second))
	b := m.Submit(knownTask("b", 1, 10*time.Second))
	m.AddWorker("w1", resources.New(1, 12288, 1000))
	var order []int
	m.OnComplete(func(r Result) { order = append(order, r.Task.ID) })
	eng.Run()
	if order[0] != a || order[1] != b {
		t.Fatalf("order = %v, want FIFO [%d %d]", order, a, b)
	}
}

func TestCancelWaitingTask(t *testing.T) {
	eng, m := newMaster(t)
	done := results(m)
	m.AddWorker("w1", resources.New(1, 12288, 1000))
	running := m.Submit(knownTask("a", 1, 10*time.Second))
	queued := m.Submit(knownTask("a", 1, 10*time.Second))
	eng.RunFor(time.Second)
	if err := m.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	task, _ := m.Task(queued)
	if task.State != TaskCanceled || task.FinishedAt.IsZero() {
		t.Errorf("task = %+v", task)
	}
	eng.Run()
	if m.CompletedCount() != 1 {
		t.Errorf("completed = %d, want only the running task", m.CompletedCount())
	}
	if r, ok := done[running]; !ok || r.State != TaskComplete {
		t.Errorf("running task delivered=%v state=%v", ok, r.State)
	}
	if _, ok := done[queued]; ok {
		t.Error("canceled task delivered a Result")
	}
}

func TestCancelRunningTaskFreesCapacity(t *testing.T) {
	eng, m := newMaster(t)
	done := results(m)
	m.AddWorker("w1", resources.New(1, 12288, 1000))
	longID := m.Submit(knownTask("a", 1, time.Hour))
	nextID := m.Submit(knownTask("a", 1, 10*time.Second))
	eng.RunFor(time.Second)
	if err := m.Cancel(longID); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	next := done[nextID]
	if next.State != TaskComplete {
		t.Fatalf("next task = %v, want complete after cancel freed the slot", next.State)
	}
	if m.Stats().InUse.AnyPositive() {
		t.Error("allocation leaked after cancel")
	}
}

func TestCancelErrors(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(1, 12288, 1000))
	id := m.Submit(knownTask("a", 1, time.Second))
	eng.Run()
	if err := m.Cancel(id); err == nil {
		t.Error("canceling a completed task should fail")
	}
	if err := m.Cancel(999); err == nil {
		t.Error("canceling an unknown task should fail")
	}
	id2 := m.Submit(knownTask("a", 1, time.Hour))
	eng.RunFor(time.Second)
	m.Cancel(id2)
	if err := m.Cancel(id2); err == nil {
		t.Error("double cancel should fail")
	}
	eng.Run()
}

func TestCancelLastTaskCompletesDrain(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(1, 12288, 1000))
	id := m.Submit(knownTask("a", 1, time.Hour))
	eng.RunFor(time.Second)
	drained := false
	m.DrainWorker("w1", func(string) { drained = true })
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !drained {
		t.Error("drain callback never fired after cancel emptied the worker")
	}
}

func TestDispatchPolicies(t *testing.T) {
	setup := func(p Policy) (*simclock.Engine, *Master) {
		eng := simclock.NewEngine(t0)
		m := NewMaster(eng, nil)
		m.SetPolicy(p)
		m.AddWorker("big", resources.New(4, 16384, 1000))
		m.AddWorker("small", resources.New(2, 16384, 1000))
		// Pre-load the big worker with one task so free CPU differs:
		// big has 3 free, small has 2 free.
		m.Submit(knownTask("seed", 1, time.Hour))
		eng.RunFor(time.Second)
		return eng, m
	}

	t.Run("first-fit picks join order", func(t *testing.T) {
		eng, m := setup(FirstFit)
		id := m.Submit(knownTask("x", 1, time.Hour))
		eng.RunFor(time.Second)
		task, _ := m.Task(id)
		if task.WorkerID != "big" {
			t.Errorf("worker = %s, want big (first in join order)", task.WorkerID)
		}
	})
	t.Run("best-fit picks tightest", func(t *testing.T) {
		eng, m := setup(BestFit)
		id := m.Submit(knownTask("x", 1, time.Hour))
		eng.RunFor(time.Second)
		task, _ := m.Task(id)
		if task.WorkerID != "small" {
			t.Errorf("worker = %s, want small (1 core left vs 2)", task.WorkerID)
		}
	})
	t.Run("worst-fit picks emptiest", func(t *testing.T) {
		eng, m := setup(WorstFit)
		id := m.Submit(knownTask("x", 1, time.Hour))
		eng.RunFor(time.Second)
		task, _ := m.Task(id)
		if task.WorkerID != "big" {
			t.Errorf("worker = %s, want big (2 cores left vs 1)", task.WorkerID)
		}
	})
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		FirstFit: "first-fit", BestFit: "best-fit", WorstFit: "worst-fit", Policy(9): "policy(9)",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p)
		}
	}
}

func TestBestFitConsolidatesForDraining(t *testing.T) {
	// Best-fit keeps one worker fully idle where worst-fit spreads —
	// the property HTA's drain-based scale-down benefits from.
	run := func(p Policy) int {
		eng := simclock.NewEngine(t0)
		m := NewMaster(eng, nil)
		m.SetPolicy(p)
		m.AddWorker("w1", resources.New(3, 12288, 1000))
		m.AddWorker("w2", resources.New(3, 12288, 1000))
		for i := 0; i < 3; i++ {
			m.Submit(knownTask("x", 1, time.Hour))
		}
		eng.RunFor(time.Second)
		return m.Stats().IdleWorkers
	}
	if got := run(BestFit); got != 1 {
		t.Errorf("best-fit idle workers = %d, want 1", got)
	}
	if got := run(WorstFit); got != 0 {
		t.Errorf("worst-fit idle workers = %d, want 0 (spread)", got)
	}
}

// Property: under random interleavings of priority submissions,
// cancellations, worker kills and clock steps, accounting stays
// consistent — every task ends Complete or Canceled exactly once, and
// capacity balances to zero — and Task agrees with a plain model after
// every operation. Waiting, running and canceled IDs are held with
// their own ID and Tag; a completed ID is absent exactly when its
// Result was delivered, and present inside its own OnComplete call.
// Retired records are reused by later submissions, so this is the
// check that a reused slot never answers for its former ID.
func TestPropertyPriorityCancelConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := simclock.NewEngine(t0)
		m := NewMaster(eng, nil)
		worker := 0
		m.AddWorker("w0", resources.New(3, 12288, 1000))
		var ids []int
		tags := make(map[int]string)
		completions := make(map[int]int)
		heldInCallback := true
		m.OnComplete(func(r Result) {
			completions[r.Task.ID]++
			if tk, ok := m.Task(r.Task.ID); !ok || tk.State != TaskComplete {
				heldInCallback = false
			}
		})
		canceled := make(map[int]bool)
		agrees := func() bool {
			for _, id := range ids {
				tk, held := m.Task(id)
				switch {
				case completions[id] > 0:
					if held || completions[id] != 1 || canceled[id] {
						return false
					}
				case !held || tk.ID != id || tk.Tag != tags[id]:
					return false
				case canceled[id]:
					if tk.State != TaskCanceled {
						return false
					}
				case tk.State != TaskWaiting && tk.State != TaskRunning:
					return false
				}
			}
			return heldInCallback
		}
		for i, op := range ops {
			switch op % 5 {
			case 0, 1: // submit with varying priority, some untagged
				spec := knownTask("p", 1, time.Duration(op%30+1)*time.Second)
				spec.Priority = int(op % 3)
				if op%7 != 0 {
					spec.Tag = fmt.Sprintf("t%d", i)
				}
				id := m.Submit(spec)
				ids = append(ids, id)
				tags[id] = spec.Tag
			case 2: // advance time
				eng.RunFor(time.Duration(op%20) * time.Second)
			case 3: // cancel a not-yet-finished task; a finished one refuses
				for _, id := range ids {
					if completions[id] > 0 {
						if m.Cancel(id) == nil {
							return false
						}
						continue
					}
					if !canceled[id] {
						if m.Cancel(id) != nil {
							return false
						}
						canceled[id] = true
						break
					}
				}
			case 4: // kill the worker; a fresh one takes over
				if m.KillWorker(fmt.Sprintf("w%d", worker)) != nil {
					return false
				}
				worker++
				m.AddWorker(fmt.Sprintf("w%d", worker), resources.New(3, 12288, 1000))
			}
			if !agrees() {
				return false
			}
		}
		eng.Run()
		if !agrees() {
			return false
		}
		var wantTags []string
		for _, id := range ids { // ascending: IDs are issued in order
			if canceled[id] {
				if completions[id] != 0 {
					return false
				}
			} else if completions[id] != 1 {
				return false
			} else if tags[id] != "" {
				wantTags = append(wantTags, tags[id])
			}
		}
		if got := m.CompletedTags(); !slices.Equal(got, wantTags) {
			return false
		}
		s := m.Stats()
		return s.Running == 0 && s.Waiting == 0 && s.InUse.IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDrainCancelMidFetchFreesLink is the regression test for the
// drain-path teardown leak: canceling the last task of a draining
// worker completed the drain and removed the worker, but an in-flight
// shared-file fetch kept consuming link capacity until it finished.
func TestDrainCancelMidFetchFreesLink(t *testing.T) {
	eng := simclock.NewEngine(t0)
	link := netsim.NewLink(eng, 100, 0)
	m := NewMaster(eng, link)
	m.AddWorker("w1", resources.New(3, 12288, 100000))
	spec := knownTask("a", 1, 10*time.Second)
	spec.SharedInputs = []File{{Name: "db", SizeMB: 1000}}
	id := m.Submit(spec)
	eng.RunFor(2 * time.Second) // mid-fetch
	if link.Active() != 1 {
		t.Fatalf("active transfers = %d, want the in-flight fetch", link.Active())
	}
	drained := false
	m.DrainWorker("w1", func(string) { drained = true })
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if link.Active() != 0 {
		t.Errorf("removed worker still holds %d transfers", link.Active())
	}
	eng.Run()
	if !drained {
		t.Error("drain callback never fired")
	}
	if eng.Elapsed() != 2*time.Second {
		t.Errorf("elapsed = %v, want 2s; a canceled fetch must not stretch the run", eng.Elapsed())
	}
}

// TestKillWorkerMidFetchWaitersResolve kills a worker while two tasks
// wait on the same shared-file fetch: the link frees immediately and
// both tasks resolve by re-running on a replacement worker.
func TestKillWorkerMidFetchWaitersResolve(t *testing.T) {
	eng := simclock.NewEngine(t0)
	link := netsim.NewLink(eng, 100, 0)
	m := NewMaster(eng, link)
	done := results(m)
	m.AddWorker("w1", resources.New(3, 12288, 100000))
	spec := knownTask("a", 1, 10*time.Second)
	spec.SharedInputs = []File{{Name: "db", SizeMB: 500}}
	a := m.Submit(spec)
	b := m.Submit(spec) // queues a waiter on the same in-flight fetch
	eng.RunFor(2 * time.Second)
	if err := m.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if link.Active() != 0 {
		t.Errorf("active transfers after kill = %d", link.Active())
	}
	m.AddWorker("w2", resources.New(3, 12288, 100000))
	eng.Run()
	for _, id := range []int{a, b} {
		task := done[id]
		if task.State != TaskComplete || task.WorkerID != "w2" || task.Attempts != 2 {
			t.Errorf("task %d = %+v, want complete on w2 attempt 2", id, task)
		}
	}
}
