package wq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"hta/internal/resources"
)

// TestTaskSize pins the task record's size: the dispatch storm holds a
// million of them, so a new field has to be paid for by packing. The
// public Task, which every read of a task builds, stays at its size
// too.
func TestTaskSize(t *testing.T) {
	if sz := unsafe.Sizeof(taskRec{}); sz > 160 {
		t.Fatalf("taskRec is %d bytes, want at most 160", sz)
	}
	if sz := unsafe.Sizeof(Task{}); sz > 336 {
		t.Fatalf("wq.Task is %d bytes, want at most 336", sz)
	}
}

// TestWorkerChurnTableBounded churns 10k workers through connect and
// remove (drains of idle workers, kills of busy ones) with at most 64
// connected at once. The worker table must stay sized to the peak live
// fleet, not to every worker that ever joined, and a removed worker
// must never alias the worker that reuses its slot.
func TestWorkerChurnTableBounded(t *testing.T) {
	eng, m := newMaster(t)
	rng := rand.New(rand.NewSource(3))
	var live []string
	peak := 0
	for i := 0; i < 10000; i++ {
		if len(live) == 64 || (len(live) > 0 && rng.Intn(2) == 0) {
			j := rng.Intn(len(live))
			id := live[j]
			live = slices.Delete(live, j, j+1)
			old := m.worker(id)
			var err error
			if m.WorkerBusy(id) {
				err = m.KillWorker(id)
			} else {
				err = m.DrainWorker(id, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.connected(old) || m.worker(id) != nil {
				t.Fatalf("worker %s still connected after removal", id)
			}
		}
		id := fmt.Sprintf("w%d", i)
		if err := m.AddWorker(id, resources.New(2, 4096, 100)); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
		peak = max(peak, len(live))
		if i%7 == 0 {
			m.Submit(knownTask("c", 1, time.Duration(1+rng.Intn(60))*time.Second))
		}
		eng.RunFor(time.Second)
	}
	if len(m.wids) != len(live) || m.workerCount != len(live) {
		t.Fatalf("wids=%d workerCount=%d, want %d live", len(m.wids), m.workerCount, len(live))
	}
	if len(m.workersBy) > peak+1 {
		t.Fatalf("worker table has %d slots after 10k joins, want at most peak live %d + 1", len(m.workersBy), peak)
	}
	for _, id := range live {
		if w := m.worker(id); w == nil || w.id != id || !m.connected(w) {
			t.Fatalf("live worker %s not found under its own id", id)
		}
	}
}

// TestAppendIdleWorkers checks the scale-down candidate list: connected
// workers with no running task, in join order, skipping busy and
// draining ones, appended to the caller's buffer.
func TestAppendIdleWorkers(t *testing.T) {
	eng, m := newMaster(t)
	for _, id := range []string{"w1", "w2", "w3", "w4"} {
		m.AddWorker(id, resources.New(1, 4096, 100))
	}
	m.Submit(knownTask("c", 1, time.Hour)) // takes w1, the first fit
	eng.RunFor(time.Second)
	m.Submit(knownTask("c", 1, time.Hour)) // takes w2
	eng.RunFor(time.Second)
	if err := m.DrainWorker("w2", nil); err != nil { // busy: drains later
		t.Fatal(err)
	}
	m.AddWorker("w5", resources.New(1, 4096, 100))
	got := m.AppendIdleWorkers([]string{"keep"})
	if want := []string{"keep", "w3", "w4", "w5"}; !slices.Equal(got, want) {
		t.Fatalf("AppendIdleWorkers = %v, want %v", got, want)
	}
}
