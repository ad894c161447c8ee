package wq

import (
	"time"

	"hta/internal/resources"
)

// RetryPolicy bounds how the master resubmits failed task attempts
// (worker kills, fast-aborts). The zero value preserves the classic
// Work Queue behaviour: retry forever, immediately, never abort a
// straggler.
type RetryPolicy struct {
	// MaxAttempts quarantines a task once it has been dispatched this
	// many times without completing (poison-task protection: a task
	// that keeps killing workers stops being resubmitted). 0 = retry
	// forever.
	MaxAttempts int
	// BackoffBase delays the k-th resubmission of a task by
	// BackoffBase << (k-1), capped at BackoffMax. 0 = requeue
	// immediately.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. 0 with a nonzero
	// BackoffBase means no cap.
	BackoffMax time.Duration
	// FastAbortMultiplier kills and resubmits a running task once its
	// wall time since dispatch exceeds multiplier × the category's
	// completed-task mean (Work Queue's fast-abort). Requires an
	// estimator with measurements for the category. 0 = disabled.
	FastAbortMultiplier float64
}

// backoff returns the delay before resubmitting a task that has
// failed `failures` times (failures ≥ 1).
func (p RetryPolicy) backoff(failures int) time.Duration {
	if p.BackoffBase <= 0 || failures <= 0 {
		return 0
	}
	d := p.BackoffBase
	for i := 1; i < failures; i++ {
		d *= 2
		if p.BackoffMax > 0 && d >= p.BackoffMax {
			return p.BackoffMax
		}
	}
	if p.BackoffMax > 0 && d > p.BackoffMax {
		return p.BackoffMax
	}
	return d
}

// SetRetryPolicy installs the retry policy for subsequent failures.
func (m *Master) SetRetryPolicy(p RetryPolicy) { m.retry = p }

// OnTaskFailed subscribes to permanent task failures (quarantine).
// The callback receives a copy of the task and fires from a
// zero-delay event, never re-entrantly from inside a master call.
func (m *Master) OnTaskFailed(fn func(Task)) { m.onFailed = append(m.onFailed, fn) }

// FailureStats aggregates the master's failure and recovery activity.
type FailureStats struct {
	WorkerKills int // KillWorker calls (preemptions, crashes)
	Requeues    int // task attempts returned to the queue by kills
	FastAborts  int // straggler attempts killed by fast-abort
	Quarantined int // tasks permanently failed (retry budget spent)
	// LostCoreSeconds is execution already performed by attempts that
	// were killed, aborted or canceled — work that must be redone.
	LostCoreSeconds float64
	// UsefulCoreSeconds is execution performed by attempts that
	// completed.
	UsefulCoreSeconds float64
}

// Goodput returns useful execution as a fraction of all execution
// performed (1.0 when nothing was lost; 0 before any execution).
func (s FailureStats) Goodput() float64 {
	total := s.UsefulCoreSeconds + s.LostCoreSeconds
	if total <= 0 {
		return 0
	}
	return s.UsefulCoreSeconds / total
}

// FailureStats returns the failure/recovery counters.
func (m *Master) FailureStats() FailureStats { return m.fstats }

// SubmittedCount returns the number of tasks ever submitted.
func (m *Master) SubmittedCount() int { return m.nextID }

// QuarantinedCount returns the number of permanently failed tasks.
func (m *Master) QuarantinedCount() int { return m.fstats.Quarantined }

// failAttempt processes one failed attempt of a stopped, deallocated
// task: it either quarantines the task (budget spent), schedules a
// delayed resubmission, or reports that the caller should requeue it
// immediately (returned true).
func (m *Master) failAttempt(t *taskRec) (requeueNow bool) {
	return m.failAttemptCharged(t, true)
}

// failAttemptCharged is failAttempt with the budget charge optional:
// a task whose worker died while the master itself was down is not at
// fault, so the rescue-window expiry retries it with backoff without
// consuming a retry-budget slot (charge=false skips the quarantine
// check, never the backoff).
func (m *Master) failAttemptCharged(t *taskRec, charge bool) (requeueNow bool) {
	t.alloc = resources.Zero
	t.exclusive = false
	if charge && m.retry.MaxAttempts > 0 && int(t.attempts) >= m.retry.MaxAttempts {
		m.quarantine(t)
		return false
	}
	t.state = TaskWaiting
	failures := int(t.attempts)
	if failures < 1 {
		failures = 1
	}
	if d := m.retry.backoff(failures); d > 0 {
		m.scheduleRetry(t, d)
		return false
	}
	return true
}

// quarantine permanently fails a task and notifies subscribers from a
// zero-delay event (so callbacks never run inside KillWorker's loop).
func (m *Master) quarantine(t *taskRec) {
	t.state = TaskQuarantined
	t.finished = m.now()
	m.fstats.Quarantined++
	if len(m.onFailed) > 0 {
		cp := m.view(t)
		m.eng.After(0, "wq-task-failed", func() {
			for _, fn := range m.onFailed {
				fn(cp)
			}
		})
	}
}

// FailAllPending settles every waiting task as quarantined — queued,
// parked in the admission buffer, or sitting out a retry backoff —
// regardless of remaining retry budget. It is the offboarding handback
// hook: a tenant leaving the cluster has its pending (never-started)
// work terminated with the same terminal state and callbacks as a
// poison task, so the conservation invariant submitted = completed +
// quarantined (+ shed) holds through the departure, while running
// tasks finish normally on their draining workers. Returns the number
// of tasks quarantined.
func (m *Master) FailAllPending() int {
	ids := make([]int, 0, m.waiting.Len()+len(m.retryPending)+len(m.admQueue))
	for id := 1; id < len(m.byID); id++ {
		if t := m.task(id); t != nil && t.state == TaskWaiting {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		t := m.byID[id]
		if m.cancelBuffered(id) {
			// Was parked in the admission buffer; never entered the queue.
		} else if tmr, pending := m.retryPending[id]; pending {
			tmr.Stop()
			delete(m.retryPending, id)
			delete(m.retryResume, id)
		} else {
			m.waiting.Remove(id, t.res, m.catIDFor(t))
		}
		m.quarantine(t)
	}
	if m.inOverload && len(m.admQueue) == 0 {
		// The queue and buffer are empty now; close the interval.
		m.exitOverload()
	}
	if len(ids) > 0 {
		m.rev++
	}
	return len(ids)
}

// scheduleRetry re-enqueues the task at the front of the queue after
// the backoff delay. While delayed, the task is waiting but not in
// the queue; Stats counts it and Cancel stops the timer.
func (m *Master) scheduleRetry(t *taskRec, d time.Duration) {
	id := int(t.id)
	m.retryResume[id] = m.eng.Now().Add(d)
	m.retryPending[id] = m.eng.After(d, "wq-retry", func() {
		delete(m.retryPending, id)
		delete(m.retryResume, id)
		m.enqueueFront([]int{id})
	})
}

// enqueueFront returns previously dispatched tasks to the front of
// the queue in submission order (they are the oldest outstanding
// work).
func (m *Master) enqueueFront(ids []int) {
	if len(ids) == 0 {
		return
	}
	m.waiting.PushFront(ids, func(id int) (int, resources.Vector, int32) {
		t := m.byID[id]
		return int(t.priority), t.res, m.catIDFor(t)
	})
	m.notePeakWaiting()
	m.rev++
	m.scheduleDispatch()
}

// armFastAbort starts the straggler deadline for a freshly dispatched
// attempt: multiplier × the category's completed-task mean, measured
// from dispatch (transfers included, matching ExecWall).
func (m *Master) armFastAbort(rt *runningTask) {
	if m.retry.FastAbortMultiplier <= 0 || m.estimator == nil {
		return
	}
	mean, ok := m.estimator.EstimateExecTime(m.category(rt.task))
	if !ok || mean <= 0 {
		return
	}
	deadline := time.Duration(float64(mean) * m.retry.FastAbortMultiplier)
	if rt.abortFn == nil {
		// Bound lazily: only workloads with fast-abort armed pay for
		// the closure, once per record.
		rt.abortFn = func() { m.fastAbort(rt) }
	}
	rt.abortTmr = m.eng.After(deadline, "wq-fast-abort", rt.abortFn)
}

// fastAbort kills a straggling attempt on its worker and resubmits
// (or quarantines) the task. The worker itself stays connected.
func (m *Master) fastAbort(rt *runningTask) {
	t, w := rt.task, rt.worker
	if t == nil || w.running.get(int(t.id)) != rt {
		return // attempt already finished or was stopped
	}
	m.fstats.FastAborts++
	m.detachRunning(rt)
	if m.failAttempt(t) {
		m.enqueueFront([]int{int(t.id)})
	}
	if w.draining && w.running.len() == 0 {
		m.finishDrain(w)
		return
	}
	m.scheduleDispatch()
}

// detachRunning stops a dispatched attempt and releases its worker
// allocation, leaving the task's next state to the caller.
func (m *Master) detachRunning(rt *runningTask) {
	t, w := rt.task, rt.worker
	m.stopTask(rt)
	m.leaveWorker(t)
	w.running.remove(int(t.id))
	m.runIDs.clear(int(t.id))
	w.pool.Release(t.alloc)
	m.syncAvail(w)
	m.runningCount--
	m.totalUsed = m.totalUsed.Sub(t.alloc)
	if w.running.len() == 0 && !w.draining {
		m.idleCount++
		m.markIdle(w)
	}
	m.rev++
}

// WaitingRetries returns the number of failed tasks sitting out a
// backoff delay (waiting but not yet back in the queue).
func (m *Master) WaitingRetries() int { return len(m.retryPending) }
