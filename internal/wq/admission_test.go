package wq

import (
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// TestAdmissionBoundsQueueDepth is the overload guarantee: during a
// submission storm far past capacity, the waiting queue never exceeds
// MaxWaiting at any event boundary, the buffer never exceeds
// BufferDepth, everything past both caps is shed with a recorded
// Rejected outcome, and submitted = completed + shed at the end.
func TestAdmissionBoundsQueueDepth(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	m.SetAdmissionPolicy(AdmissionPolicy{MaxWaiting: 20, BufferDepth: 10})
	m.AddWorker("w1", resources.New(4, 16384, 1000))

	var rejected []Task
	m.OnRejected(func(tk Task) { rejected = append(rejected, tk) })

	// Storm: 200 ten-second tasks over 10 s against 4 task-slots —
	// two orders of magnitude past what the fleet can absorb.
	const storm = 200
	for i := 0; i < storm; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		eng.At(t0.Add(at), "storm-submit", func() {
			m.Submit(knownTask("storm", 1, 10*time.Second))
		})
	}
	peakSeen := 0
	tick := eng.Every(100*time.Millisecond, "depth-probe", func() {
		if d := m.waiting.Len(); d > peakSeen {
			peakSeen = d
		}
		if d := m.waiting.Len(); d > 20 {
			t.Fatalf("queue depth %d exceeds cap 20", d)
		}
		if b := len(m.admQueue); b > 10 {
			t.Fatalf("buffer depth %d exceeds cap 10", b)
		}
	})
	eng.RunFor(30 * time.Minute)
	tick.Stop()
	eng.Run()

	st := m.Stats()
	if st.Waiting != 0 || st.Running != 0 {
		t.Fatalf("storm not drained: %+v", st)
	}
	if m.SubmittedCount() != storm {
		t.Fatalf("SubmittedCount = %d, want %d", m.SubmittedCount(), storm)
	}
	if got := st.Complete + st.Shed; got != storm {
		t.Errorf("completed(%d) + shed(%d) = %d, want %d", st.Complete, st.Shed, got, storm)
	}
	if st.Shed == 0 {
		t.Error("expected sheds during a 10x storm")
	}
	if len(rejected) != st.Shed {
		t.Errorf("OnRejected fired %d times, shed = %d", len(rejected), st.Shed)
	}
	for _, tk := range rejected {
		if tk.State != TaskRejected {
			t.Fatalf("rejected task %d in state %v", tk.ID, tk.State)
		}
	}
	o := m.OverloadStats()
	if o.PeakWaiting > 20 {
		t.Errorf("PeakWaiting = %d, want <= 20", o.PeakWaiting)
	}
	if peakSeen == 0 || o.PeakWaiting < peakSeen {
		t.Errorf("PeakWaiting = %d, probe saw %d", o.PeakWaiting, peakSeen)
	}
	if o.PeakBuffered == 0 || o.PeakBuffered > 10 {
		t.Errorf("PeakBuffered = %d, want in (0, 10]", o.PeakBuffered)
	}
	if o.Shed != st.Shed || o.Buffered == 0 {
		t.Errorf("overload counters = %+v", o)
	}
	if o.TimeInOverload <= 0 {
		t.Errorf("TimeInOverload = %v, want > 0", o.TimeInOverload)
	}
}

// TestAdmissionBufferDrainsInArrivalOrder checks that buffered
// submissions are admitted FIFO as the queue drains, and that with
// room under the cap the buffer empties completely.
func TestAdmissionBufferDrainsInArrivalOrder(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	m.SetAdmissionPolicy(AdmissionPolicy{MaxWaiting: 2, BufferDepth: 4})

	// No workers: nothing dispatches, the queue stays full.
	ids := make([]int, 0, 6)
	for i := 0; i < 6; i++ {
		ids = append(ids, m.Submit(knownTask("a", 1, time.Second)))
	}
	eng.Run()
	if got := m.waiting.Len(); got != 2 {
		t.Fatalf("queued = %d, want 2", got)
	}
	if got := len(m.admQueue); got != 4 {
		t.Fatalf("buffered = %d, want 4", got)
	}
	// Cancel the two queued tasks: the two oldest buffered submissions
	// must take their places, in arrival order.
	if err := m.Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(ids[1]); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := len(m.admQueue); got != 2 {
		t.Fatalf("buffered after cancels = %d, want 2", got)
	}
	order := m.waiting.QueueOrder()
	if len(order) != 2 || order[0] != ids[2] || order[1] != ids[3] {
		t.Fatalf("queue order = %v, want [%d %d]", order, ids[2], ids[3])
	}
	// A worker drains everything that was admitted or buffered.
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	eng.Run()
	if st := m.Stats(); st.Complete != 4 || st.Buffered != 0 {
		t.Fatalf("final stats = %+v, want 4 complete, 0 buffered", st)
	}
}

// TestAdmissionDisabledIsClassicWorkQueue pins that the zero policy
// changes nothing: every submission is queued, nothing buffers or
// sheds, and the overload counters stay zero except the depth peak.
func TestAdmissionDisabledIsClassicWorkQueue(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	for i := 0; i < 50; i++ {
		m.Submit(knownTask("a", 1, time.Second))
	}
	if got := m.waiting.Len(); got != 50 {
		t.Fatalf("queued = %d, want 50", got)
	}
	o := m.OverloadStats()
	if o.Shed != 0 || o.Buffered != 0 || o.TimeInOverload != 0 {
		t.Errorf("overload counters with admission disabled: %+v", o)
	}
	if o.PeakWaiting != 50 {
		t.Errorf("PeakWaiting = %d, want 50", o.PeakWaiting)
	}
}

// TestAdmissionCancelBuffered covers withdrawing a submission that
// never left the admission buffer.
func TestAdmissionCancelBuffered(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	m.SetAdmissionPolicy(AdmissionPolicy{MaxWaiting: 1, BufferDepth: 2})
	m.Submit(knownTask("a", 1, time.Second))
	id2 := m.Submit(knownTask("a", 1, time.Second))
	if err := m.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	if got := len(m.admQueue); got != 0 {
		t.Fatalf("buffered = %d, want 0", got)
	}
	if tk, _ := m.Task(id2); tk.State != TaskCanceled {
		t.Fatalf("state = %v, want canceled", tk.State)
	}
	eng.Run()
}

// TestAdmissionRequeueBypassesCap: tasks returned by a worker kill
// re-enter at the queue front even at the cap — they were admitted
// once and are still owed execution.
func TestAdmissionRequeueBypassesCap(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	m.SetAdmissionPolicy(AdmissionPolicy{MaxWaiting: 2, BufferDepth: 0})
	m.AddWorker("w1", resources.New(2, 8192, 1000))
	running := make([]int, 0, 2)
	for i := 0; i < 2; i++ {
		running = append(running, m.Submit(knownTask("a", 1, time.Hour)))
	}
	eng.RunFor(time.Second) // both dispatch
	for i := 0; i < 2; i++ {
		m.Submit(knownTask("a", 1, time.Hour)) // fill the queue to the cap
	}
	eng.RunFor(time.Second)
	if err := m.KillWorker("w1"); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(time.Second)
	if got := m.waiting.Len(); got != 4 {
		t.Fatalf("queued after kill = %d, want 4 (cap 2 + 2 requeues)", got)
	}
	order := m.waiting.QueueOrder()
	if order[0] != running[0] || order[1] != running[1] {
		t.Fatalf("requeued tasks not at the front: %v", order)
	}
}

// TestAdmissionSurvivesCrashRestore: buffered submissions re-park on
// Restore and are still admitted in order once capacity appears.
func TestAdmissionSurvivesCrashRestore(t *testing.T) {
	eng := simclock.NewEngine(t0)
	m := NewMaster(eng, nil)
	m.SetAdmissionPolicy(AdmissionPolicy{MaxWaiting: 2, BufferDepth: 3})
	for i := 0; i < 5; i++ {
		m.Submit(knownTask("a", 1, time.Second))
	}
	eng.Run()
	before := m.OverloadStats()
	if before.Buffered != 3 {
		t.Fatalf("buffered = %d, want 3", before.Buffered)
	}
	snap, _ := m.Crash()
	if len(snap.AdmissionBuffer) != 3 {
		t.Fatalf("snapshot buffer = %v", snap.AdmissionBuffer)
	}
	eng.RunFor(time.Minute)
	m.Restore(snap, 0)
	eng.Run()
	if got := len(m.admQueue); got != 3 {
		t.Fatalf("buffered after restore = %d, want 3", got)
	}
	after := m.OverloadStats()
	if after.PeakBuffered != before.PeakBuffered || after.Shed != before.Shed {
		t.Errorf("overload counters lost across restart: %+v vs %+v", after, before)
	}
	m.AddWorker("w1", resources.New(4, 16384, 1000))
	eng.Run()
	if st := m.Stats(); st.Complete != 5 {
		t.Fatalf("complete = %d, want 5", st.Complete)
	}
}
