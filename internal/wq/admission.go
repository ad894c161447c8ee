package wq

import (
	"time"

	"hta/internal/metrics"
)

// AdmissionPolicy bounds the master's waiting queue under overload.
// In an open system (continuous submission stream) an unbounded queue
// turns a transient burst into unbounded latency for everything behind
// it; bounded admission converts the excess into explicit backpressure
// instead. The zero value disables admission control (classic Work
// Queue: accept everything).
type AdmissionPolicy struct {
	// MaxWaiting caps the number of queued tasks admitted for
	// dispatch. Submissions arriving with the queue at the cap park in
	// the admission buffer. 0 = unbounded.
	MaxWaiting int
	// BufferDepth is the admission-buffer capacity past MaxWaiting.
	// Submissions arriving with the buffer full are shed: recorded
	// with a Rejected outcome and never executed. 0 = shed immediately
	// at the cap.
	BufferDepth int
}

// SetAdmissionPolicy installs the admission policy. Lowering the cap
// does not evict already-queued tasks; raising it admits buffered
// submissions immediately.
func (m *Master) SetAdmissionPolicy(p AdmissionPolicy) {
	m.admission = p
	m.drainAdmission()
}

// OnRejected subscribes to shed submissions. The callback receives a
// copy of the task and fires from a zero-delay event, never
// re-entrantly from inside Submit.
func (m *Master) OnRejected(fn func(Task)) { m.onRejected = append(m.onRejected, fn) }

// OverloadStats returns the admission-control counters, with any
// open overload interval counted up to now.
func (m *Master) OverloadStats() metrics.OverloadCounters {
	s := m.ostats
	if m.inOverload {
		s.TimeInOverload += m.eng.Now().Sub(m.overloadSince)
	}
	return s
}

// QueuedCount returns the number of tasks in the waiting queue proper
// (excluding retry backoffs, rescue windows and the admission
// buffer). With admission enabled this never exceeds
// AdmissionPolicy.MaxWaiting except transiently through requeues of
// already-admitted work.
func (m *Master) QueuedCount() int { return m.waiting.Len() }

// BufferedCount returns the number of submissions parked in the
// admission buffer.
func (m *Master) BufferedCount() int { return len(m.admQueue) }

// ShedCount returns the number of submissions rejected at the hard
// cap.
func (m *Master) ShedCount() int { return m.ostats.Shed }

// admit routes a freshly submitted task: into the queue while below
// the cap, into the admission buffer while overloaded, shed past the
// buffer. Requeues of already-dispatched work bypass admission (see
// enqueueFront) — they were admitted once and are still owed
// execution.
func (m *Master) admit(t *taskRec) {
	if m.admission.MaxWaiting > 0 && m.waiting.Len() >= m.admission.MaxWaiting {
		m.enterOverload()
		if len(m.admQueue) < m.admission.BufferDepth {
			m.admQueue = append(m.admQueue, int(t.id))
			m.admSet[int(t.id)] = struct{}{}
			m.ostats.Buffered++
			if n := len(m.admQueue); n > m.ostats.PeakBuffered {
				m.ostats.PeakBuffered = n
			}
			return
		}
		m.shed(t)
		return
	}
	m.enqueue(t)
}

// enqueue pushes an admitted task at the back of the waiting queue.
func (m *Master) enqueue(t *taskRec) {
	m.waiting.Push(int(t.id), int(t.priority), t.res, m.catIDFor(t))
	m.notePeakWaiting()
	m.rev++
	m.scheduleDispatch()
}

// notePeakWaiting records the waiting-queue high-water mark; called
// from every queue-growth site (Submit, requeues, buffer drain).
func (m *Master) notePeakWaiting() {
	if n := m.waiting.Len(); n > m.ostats.PeakWaiting {
		m.ostats.PeakWaiting = n
	}
}

// shed rejects a submission at the hard cap. The task keeps its ID
// (SubmittedCount stays the total ever submitted) and is recorded
// with the terminal Rejected state; subscribers are notified from a
// zero-delay event, matching quarantine.
func (m *Master) shed(t *taskRec) {
	t.state = TaskRejected
	t.finished = m.now()
	m.ostats.Shed++
	if len(m.onRejected) > 0 {
		cp := m.view(t)
		m.eng.After(0, "wq-task-rejected", func() {
			for _, fn := range m.onRejected {
				fn(cp)
			}
		})
	}
}

// drainAdmission moves buffered submissions into the waiting queue,
// in arrival order, while there is room under the cap, and closes the
// overload interval once the buffer is empty and the queue is back
// under the cap. Called after dispatch passes and cancellations —
// never from inside a queue Scan.
func (m *Master) drainAdmission() {
	k := 0
	for k < len(m.admQueue) && (m.admission.MaxWaiting <= 0 || m.waiting.Len() < m.admission.MaxWaiting) {
		id := m.admQueue[k]
		delete(m.admSet, id)
		m.enqueue(m.byID[id])
		k++
	}
	if k > 0 {
		n := copy(m.admQueue, m.admQueue[k:])
		m.admQueue = m.admQueue[:n]
	}
	if m.inOverload && len(m.admQueue) == 0 &&
		(m.admission.MaxWaiting <= 0 || m.waiting.Len() < m.admission.MaxWaiting) {
		m.exitOverload()
	}
}

// cancelBuffered removes a canceled task from the admission buffer.
// Returns false when the task is not buffered.
func (m *Master) cancelBuffered(id int) bool {
	if _, ok := m.admSet[id]; !ok {
		return false
	}
	delete(m.admSet, id)
	for i, bid := range m.admQueue {
		if bid == id {
			m.admQueue = append(m.admQueue[:i], m.admQueue[i+1:]...)
			break
		}
	}
	return true
}

func (m *Master) enterOverload() {
	if m.inOverload {
		return
	}
	m.inOverload = true
	m.overloadSince = m.eng.Now()
}

func (m *Master) exitOverload() {
	if !m.inOverload {
		return
	}
	m.inOverload = false
	m.ostats.TimeInOverload += m.eng.Now().Sub(m.overloadSince)
}

// CategoryQueueAges returns, for every category with tasks in the
// waiting queue, the age of its oldest queued task — the per-category
// staleness signal an operator watches under overload (a category
// whose head-of-line age keeps growing is starved). Walks the queue;
// call it from samplers, not hot paths.
func (m *Master) CategoryQueueAges() map[string]time.Duration {
	if m.waiting.Len() == 0 {
		return nil
	}
	now := m.eng.Now()
	out := make(map[string]time.Duration)
	m.waiting.ForEach(func(id int) {
		t := m.byID[id]
		age := now.Sub(m.base.time(t.submitted))
		cat := m.category(t)
		if cur, ok := out[cat]; !ok || age > cur {
			out[cat] = age
		}
	})
	return out
}

// OldestQueuedAge returns the age of the oldest task in the waiting
// queue, or 0 when the queue is empty.
func (m *Master) OldestQueuedAge() time.Duration {
	var oldest time.Duration
	now := m.eng.Now()
	m.waiting.ForEach(func(id int) {
		if age := now.Sub(m.base.time(m.byID[id].submitted)); age > oldest {
			oldest = age
		}
	})
	return oldest
}
