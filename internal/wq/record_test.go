package wq

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"hta/internal/resources"
)

// TestTaskRecordHoldsNoPointer walks the hot record's type: a field
// that holds a pointer (string, slice, map, pointer, interface, func,
// chan, or time.Time's *Location) would make the record slabs scanned
// by the garbage collector again.
func TestTaskRecordHoldsNoPointer(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %v: the task record must hold no pointer", path, ty.Kind())
		}
	}
	walk("taskRec", reflect.TypeOf(taskRec{}))
}

// TestTaskRecordBytesPerTask pins the live heap a 100k-task bag costs
// in task records at 176 B per task or less, against 336 B for the
// public Task the master stored before. The bag is submitted to a
// master with no worker, and the measured heap growth is charged to
// the records after the per-ID tables and the waiting queue, whose
// sizes are known exactly from their capacities, are taken off; so a
// new per-task allocation anywhere on the submit path counts against
// the ceiling too.
func TestTaskRecordBytesPerTask(t *testing.T) {
	const n = 100_000
	_, m := newMaster(t)
	spec := knownTask("bag", 1, time.Minute)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m.Submit(spec)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	tables := cap(m.byID)*int(unsafe.Sizeof(m.byID[0])) +
		cap(m.waiting.pos)*int(unsafe.Sizeof(m.waiting.pos[0])) +
		cap(m.waiting.seq)*int(unsafe.Sizeof(m.waiting.seq[0]))
	for _, b := range m.waiting.buckets {
		tables += cap(b.ents) * int(unsafe.Sizeof(wqEnt{}))
	}
	perTask := (float64(after.HeapAlloc) - float64(before.HeapAlloc) - float64(tables)) / n
	t.Logf("%.1f B per task in records (%d B record, %d B in per-ID tables and queue)",
		perTask, unsafe.Sizeof(taskRec{}), tables)
	if perTask > 176 {
		t.Fatalf("task records cost %.1f B per task, want at most 176", perTask)
	}
	runtime.KeepAlive(m)
}

// TestTaskViewsMatchRecords follows tasks through every lifecycle path
// and checks every public read of a task, field by field, against what
// the spec and the engine's clock say it must be: Task(id), both
// visitors, Result, the OnTaskFailed and OnRejected callbacks, and a
// Snapshot→Restore round trip.
func TestTaskViewsMatchRecords(t *testing.T) {
	eng, m := newMaster(t)
	m.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	var done []Task
	var inCallback []Task
	m.OnComplete(func(r Result) {
		done = append(done, r.Task)
		tk, _ := m.Task(r.Task.ID)
		inCallback = append(inCallback, tk)
	})
	var failed, rejected []Task
	m.OnTaskFailed(func(tk Task) { failed = append(failed, tk) })
	m.OnRejected(func(tk Task) { rejected = append(rejected, tk) })

	// reads checks every read of a held task against want.
	reads := func(step string, want Task) {
		t.Helper()
		got, ok := m.Task(want.ID)
		if !ok {
			t.Fatalf("%s: Task(%d) reports false", step, want.ID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Task(%d) =\n%+v\nwant\n%+v", step, want.ID, got, want)
		}
		var visits []Task
		visit := func(tk *Task) {
			if tk.ID == want.ID {
				visits = append(visits, *tk)
			}
		}
		m.ForEachWaiting(visit)
		m.ForEachRunning(visit)
		switch {
		case want.State != TaskWaiting && want.State != TaskRunning:
			if len(visits) != 0 {
				t.Fatalf("%s: a visitor saw %v task %d", step, want.State, want.ID)
			}
		case want.State == TaskWaiting && (want.ID >= len(m.waiting.pos) || m.waiting.pos[want.ID] == nil):
			// Buffered or backing off: in neither visitor's walk.
		case len(visits) != 1 || !reflect.DeepEqual(visits[0], want):
			t.Fatalf("%s: visitors saw task %d as %+v, want %+v", step, want.ID, visits, want)
		}
	}

	// A: submitted at the engine's first instant, dispatched, killed
	// with its worker, requeued and completed on a second worker.
	specA := TaskSpec{
		Tag:          "a",
		Ref:          7,
		Command:      "blastall -i a",
		Category:     "align",
		Priority:     2,
		Resources:    resources.New(1, 1024, 100),
		SharedInputs: []File{{Name: "db", SizeMB: 1400}},
		InputMB:      3,
		OutputMB:     1,
		Profile:      Profile{ExecDuration: time.Minute, UsedCPUMilli: 900, UsedMemoryMB: 512, UsedDiskMB: 20},
	}
	a := m.Submit(specA)
	wantA := Task{ID: a, TaskSpec: specA, SubmittedAt: t0, State: TaskWaiting}
	reads("A submitted at the first instant", wantA)
	if got, _ := m.Task(a); got.SubmittedAt.IsZero() {
		t.Fatal("a task submitted at the engine's first instant reads as never submitted")
	}

	m.AddWorker("w1", resources.New(4, 16384, 1000))
	eng.RunFor(10 * time.Second)
	wantA.State, wantA.WorkerID, wantA.Attempts, wantA.Gen = TaskRunning, "w1", 1, 1
	wantA.StartedAt, wantA.Allocated = t0, specA.Resources
	reads("A running on w1", wantA)

	if err := m.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	wantA.State, wantA.Allocated = TaskWaiting, resources.Zero
	reads("A requeued", wantA)
	// w2 takes the wid w1 left; the requeued task still names w1.
	m.AddWorker("w2", resources.New(4, 16384, 1000))
	reads("A requeued, w1's wid reused", wantA)

	eng.RunFor(time.Second)
	killedAt := t0.Add(10 * time.Second)
	wantA.State, wantA.WorkerID, wantA.Attempts, wantA.Gen = TaskRunning, "w2", 2, 2
	wantA.StartedAt, wantA.Allocated = killedAt, specA.Resources
	reads("A running on w2", wantA)

	// B and C: a waiting and a running task, canceled.
	big := knownTask("huge", 64, time.Minute)
	big.Tag = "b"
	b := m.Submit(big)
	eng.RunFor(time.Second)
	c := m.Submit(knownTask("small", 1, time.Hour))
	eng.RunFor(time.Second)
	if err := m.Cancel(b); err != nil {
		t.Fatal(err)
	}
	reads("B canceled while waiting", Task{
		ID: b, TaskSpec: big, State: TaskCanceled,
		SubmittedAt: killedAt.Add(time.Second), FinishedAt: eng.Now(),
	})
	if err := m.Cancel(c); err != nil {
		t.Fatal(err)
	}
	specC := knownTask("small", 1, time.Hour)
	cAt := killedAt.Add(2 * time.Second)
	reads("C canceled while running", Task{
		ID: c, TaskSpec: specC, State: TaskCanceled, WorkerID: "w2",
		Attempts: 1, Gen: 1, Allocated: specC.Resources,
		SubmittedAt: cAt, StartedAt: cAt, FinishedAt: eng.Now(),
	})

	eng.RunUntil(killedAt.Add(time.Minute))
	if len(done) != 1 {
		t.Fatalf("%d completions, want A's", len(done))
	}
	wantA.State, wantA.FinishedAt = TaskComplete, killedAt.Add(time.Minute)
	wantA.Measured, wantA.ExecWall = specA.Profile.Usage(), time.Minute
	if !reflect.DeepEqual(done[0], wantA) {
		t.Fatalf("Result = %+v\nwant %+v", done[0], wantA)
	}
	if !reflect.DeepEqual(inCallback[0], wantA) {
		t.Fatalf("Task(id) inside OnComplete = %+v\nwant %+v", inCallback[0], wantA)
	}
	if _, ok := m.Task(a); ok {
		t.Fatal("Task(id) answers for the completed task")
	}

	// D: quarantined when its worker dies on its last attempt.
	m.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	specD := knownTask("poison", 2, time.Hour)
	specD.Command = "crash"
	d := m.Submit(specD)
	dAt := eng.Now()
	eng.RunFor(time.Second)
	if err := m.KillWorker("w2"); err != nil {
		t.Fatal(err)
	}
	wantD := Task{
		ID: d, TaskSpec: specD, State: TaskQuarantined, WorkerID: "w2",
		Attempts: 1, Gen: 1, SubmittedAt: dAt, StartedAt: dAt, FinishedAt: eng.Now(),
	}
	reads("D quarantined", wantD)
	eng.RunFor(0)
	if len(failed) != 1 || !reflect.DeepEqual(failed[0], wantD) {
		t.Fatalf("OnTaskFailed got %+v\nwant %+v", failed, wantD)
	}

	// E: shed at the admission hard cap behind a waiting F.
	m.SetAdmissionPolicy(AdmissionPolicy{MaxWaiting: 1})
	specF := knownTask("queued", 1, time.Minute)
	f := m.Submit(specF)
	specE := knownTask("late", 1, time.Minute)
	specE.Tag = "e"
	e := m.Submit(specE)
	wantE := Task{ID: e, TaskSpec: specE, State: TaskRejected, SubmittedAt: eng.Now(), FinishedAt: eng.Now()}
	reads("E rejected", wantE)
	eng.RunFor(0)
	if len(rejected) != 1 || !reflect.DeepEqual(rejected[0], wantE) {
		t.Fatalf("OnRejected got %+v\nwant %+v", rejected, wantE)
	}

	// G: running when the master crashes; the restored record keeps its
	// worker's name until the worker reattaches.
	m.SetAdmissionPolicy(AdmissionPolicy{})
	m.AddWorker("w3", resources.New(1, 4096, 1000))
	eng.RunFor(time.Second)
	fAt := eng.Now().Add(-time.Second)
	wantF := Task{
		ID: f, TaskSpec: specF, State: TaskRunning, WorkerID: "w3", Attempts: 1, Gen: 1,
		SubmittedAt: fAt, StartedAt: fAt, Allocated: specF.Resources,
	}
	reads("F running on w3", wantF)

	snap := m.Snapshot()
	snap2, workers := m.Crash()
	if !reflect.DeepEqual(snap, snap2) {
		t.Fatal("Crash's snapshot differs from Snapshot's")
	}
	m.Restore(snap, time.Minute)
	restored := m.Snapshot()
	if !reflect.DeepEqual(restored.Tasks, snap.Tasks) {
		t.Fatalf("tasks after Restore =\n%+v\nwant\n%+v", restored.Tasks, snap.Tasks)
	}
	got, _ := m.Task(f)
	if !reflect.DeepEqual(got, wantF) {
		t.Fatalf("restored F = %+v\nwant %+v", got, wantF)
	}
	for _, w := range workers {
		if err := m.AttachWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if rec := m.RecoveryStats(); rec.RescuedTasks != 1 {
		t.Fatalf("rescued %d tasks, want F", rec.RescuedTasks)
	}
	reads("F rescued on w3", wantF)
}

// TestColdTableFollowsRecords checks that cold entries live and die
// with their records: a tagged bag takes one per record, each holds its
// task's strings, and retired records leave their entries empty.
func TestColdTableFollowsRecords(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	ids := make([]int, 3000)
	for i := range ids {
		spec := knownTask("c", 1, time.Duration(1+i%7)*time.Second)
		spec.Tag, spec.Command = fmt.Sprint("t", i), fmt.Sprint("run ", i)
		ids[i] = m.Submit(spec)
	}
	for _, id := range ids {
		r := m.task(id)
		if c := m.coldOf(r); c == nil || c.tag != fmt.Sprint("t", id-1) || c.command != fmt.Sprint("run ", id-1) {
			t.Fatalf("task %d's cold entry = %+v", id, c)
		}
	}
	eng.Run()
	checkColdEmpty(t, m)
	// An untagged bag takes no entry.
	_, bare := newMaster(t)
	for i := 0; i < 3000; i++ {
		bare.Submit(knownTask("c", 1, time.Second))
	}
	if len(bare.cold.chunks) != 0 {
		t.Fatalf("an untagged bag allocated %d cold chunks", len(bare.cold.chunks))
	}
}

// checkColdEmpty asserts that no record holds a cold entry and that
// every entry is zero: the strings of completed tasks are released.
func checkColdEmpty(t *testing.T, m *Master) {
	t.Helper()
	for id := 1; id < len(m.byID); id++ {
		if r := m.byID[id]; r != nil && r.hasCold {
			t.Fatalf("retired record of task %d still holds a cold entry", id)
		}
	}
	for k, chunk := range m.cold.chunks {
		for i := range chunk {
			if !reflect.DeepEqual(chunk[i], coldRec{}) {
				t.Fatalf("cold entry %d holds %+v after every task completed", k*coldChunk+i, chunk[i])
			}
		}
	}
}

// TestTimeBaseRoundTrip pins the stamp conversion: a stamp converts
// back to exactly base.Add's value (==, location and monotonic reading
// included) and to the same stamp again, for a UTC base, a base in
// another zone and a base carrying a monotonic reading, and the zero
// time survives as the unset stamp.
func TestTimeBaseRoundTrip(t *testing.T) {
	bases := []time.Time{
		t0,
		time.Date(2021, 3, 14, 1, 59, 26, 535897932, time.FixedZone("X", -7*3600)),
		time.Now(),
	}
	stamps := []int64{0, 1, -1, 999_999_999, 1_000_000_000, -1_500_000_001, 3_723_000_000_123, 86400 * 400 * 1e9}
	for _, base := range bases {
		tb := timeBase{base}
		for _, s := range stamps {
			got, want := tb.time(s), base.Add(time.Duration(s))
			if got != want {
				t.Errorf("base %v: time(%d) = %#v, want %#v", base, s, got, want)
			}
			if back := tb.stamp(got); back != s {
				t.Errorf("base %v: stamp(time(%d)) = %d", base, s, back)
			}
		}
		if got := tb.time(noTime); !got.IsZero() || tb.stamp(time.Time{}) != noTime {
			t.Errorf("base %v: the zero time does not round-trip as unset", base)
		}
	}
}

// TestVisitorsMatchTask walks mixed queues — tagged and bare tasks,
// several categories and submission instants, requeued tasks that name
// their last worker, running tasks — and requires every visit to read
// exactly what Task(id) reads. The visitors fill one scratch Task over
// and over, so no field may carry over from the previous visit.
func TestVisitorsMatchTask(t *testing.T) {
	eng, m := newMaster(t)
	m.AddWorker("w1", resources.New(3, 16384, 1000))
	m.AddWorker("w2", resources.New(3, 16384, 1000))
	for i := 0; i < 60; i++ {
		spec := knownTask(fmt.Sprint("cat", i%3), 1, time.Duration(10+i)*time.Minute)
		switch i % 4 {
		case 0:
			spec.Tag = fmt.Sprint("t", i)
		case 1:
			spec.Command = fmt.Sprint("run ", i)
			spec.SharedInputs = []File{{Name: "db", SizeMB: 1}}
		}
		if i%5 == 0 {
			spec.Priority = 1
		}
		m.Submit(spec)
		if i%7 == 0 {
			eng.RunFor(time.Second)
		}
	}
	eng.RunFor(time.Minute)
	if err := m.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	m.AddWorker("w3", resources.New(1, 16384, 1000))
	eng.RunFor(time.Second)

	walks := 0
	check := func(tk *Task) {
		walks++
		want, ok := m.Task(tk.ID)
		if !ok || !reflect.DeepEqual(*tk, want) {
			t.Fatalf("visit of task %d =\n%+v\nTask(id) =\n%+v", tk.ID, *tk, want)
		}
	}
	m.ForEachWaiting(check)
	m.ForEachRunning(check)
	if st := m.Stats(); walks != st.Running+m.waiting.Len() || st.Running == 0 || m.waiting.Len() == 0 {
		t.Fatalf("visited %d tasks; %d running, %d queued", walks, st.Running, m.waiting.Len())
	}
}
