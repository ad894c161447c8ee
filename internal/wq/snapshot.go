package wq

// Crash consistency for the simulated master. Snapshot captures the
// master's durable state (the journal a real master would keep);
// Crash models the process dying — workers detach and keep executing
// on their own — and Restore rebuilds the same object in place, so
// every component holding a *Master pointer (autoscaler, flow runner,
// samplers) survives the restart like clients reconnecting to a
// rebooted service.
//
// Running tasks are not rescheduled on restart: they enter a rescue
// window during which a reattaching worker reporting the matching
// in-flight attempt (same worker, same generation) resumes it where
// it left off. Attempts superseded while the worker was away are
// fenced by the generation counter; tasks whose worker never returns
// are retried with backoff after the window, without consuming a
// retry-budget slot (the downtime was not the task's fault).

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hta/internal/intern"
	"hta/internal/metrics"
	"hta/internal/netsim"
	"hta/internal/resources"
	"hta/internal/simclock"
)

// RetryResume is one task sitting out a retry backoff at snapshot
// time, with its resume deadline.
type RetryResume struct {
	ID     int
	Resume time.Time
}

// Snapshot is the master's durable state: every task record the
// master still holds, the completion log, the waiting-queue order,
// pending retry deadlines, accounting totals and failure counters. It
// is a deep copy — mutating the master after Snapshot does not alter
// it.
type Snapshot struct {
	Epoch         int
	NextID        int
	CompleteCount int
	// Tasks holds the records the master still holds, ordered by ID:
	// completed tasks are retired (see Master.Task), so every ID in
	// 1..NextID missing here was completed.
	Tasks []Task
	// Completed is the completion log — the ID and non-empty Tag of
	// every completed task, ordered by ID — which Restore rebuilds so
	// CompletedTags survives a restart.
	Completed  []CompletedTag
	QueueOrder []int // waiting-queue dispatch order
	// AdmissionBuffer holds buffered-submission IDs in arrival order;
	// they re-park in the buffer on Restore (still not admitted).
	AdmissionBuffer []int
	RetryResume     []RetryResume
	Failures        FailureStats
	Overload        metrics.OverloadCounters
}

// CompletedTag is one entry of the master's completion log.
type CompletedTag struct {
	ID  int
	Tag string
}

// InflightTask is one task a detached worker still holds: the attempt
// generation it received and the execution time left at detach.
type InflightTask struct {
	ID        int
	Gen       int
	Remaining time.Duration
}

// WorkerReattach is everything needed to reattach one worker after a
// master restart — what a real worker reports in its reconnect
// handshake. Draining records that a drain was requested before the
// crash (informational: the drain request died with the master and is
// re-issued by the autoscaler's reconcile, not by AttachWorker).
type WorkerReattach struct {
	ID         string
	Capacity   resources.Vector
	DetachedAt time.Time
	Draining   bool
	Inflight   []InflightTask
}

// Snapshot captures the master's durable state without disturbing it.
func (m *Master) Snapshot() Snapshot {
	snap := Snapshot{
		Epoch:           m.epoch,
		NextID:          m.nextID,
		CompleteCount:   m.completeCount,
		Failures:        m.fstats,
		QueueOrder:      m.waiting.QueueOrder(),
		AdmissionBuffer: append([]int(nil), m.admQueue...),
		// Any open overload interval is closed at snapshot time; the
		// restored master re-opens one if it is still deflecting.
		Overload: m.OverloadStats(),
	}
	snap.Tasks = make([]Task, 0, max(m.nextID-m.completeCount, 0))
	for id := 1; id < len(m.byID); id++ {
		// A completed record still held is inside its own OnComplete
		// call and about to retire; the log already has it.
		if t := m.task(id); t != nil && t.state != TaskComplete {
			snap.Tasks = append(snap.Tasks, m.view(t))
		}
	}
	snap.Completed = m.doneLog.sorted()
	for id, at := range m.retryResume {
		snap.RetryResume = append(snap.RetryResume, RetryResume{ID: id, Resume: at})
	}
	slices.SortFunc(snap.RetryResume, func(a, b RetryResume) int { return cmp.Compare(a.ID, b.ID) })
	return snap
}

// Crash models the master process dying: it returns the state a
// journal would have persisted plus, for the simulation's benefit,
// the reattach records of every connected worker (real workers carry
// this state themselves and report it when they reconnect). The
// master object is reset in place and refuses submissions until
// Restore. Workers keep executing their tasks while the master is
// down — their in-flight records carry the execution time remaining
// at detach. Crash while already down is a no-op.
func (m *Master) Crash() (Snapshot, []WorkerReattach) {
	if m.down {
		return Snapshot{}, nil
	}
	snap := m.Snapshot()
	now := m.eng.Now()
	workers := make([]WorkerReattach, 0, m.workerCount)
	for _, w := range m.roster {
		if w == nil {
			continue
		}
		wr := WorkerReattach{
			ID:         w.id,
			Capacity:   w.pool.Capacity(),
			DetachedAt: now,
			Draining:   w.draining,
		}
		tids := make([]int, 0, w.running.len())
		for _, rt := range w.running.rts {
			tids = append(tids, int(rt.task.id))
		}
		slices.Sort(tids)
		for _, tid := range tids {
			rt := w.running.get(tid)
			t := rt.task
			remaining := t.exec
			if rt.executing {
				if remaining -= m.eng.Elapsed() - rt.execStart; remaining < 0 {
					remaining = 0
				}
			}
			wr.Inflight = append(wr.Inflight, InflightTask{ID: tid, Gen: int(t.gen), Remaining: remaining})
			// Stop the attempt's master-side machinery without the lost-
			// work accounting of stopTask: the attempt itself lives on at
			// the worker.
			m.cancelTransfers(rt)
			rt.inTr, rt.outTr = netsim.Transfer{}, netsim.Transfer{}
			rt.execTmr.Stop()
			rt.abortTmr.Stop()
			rt.aborted = true
		}
		fids := make([]int32, 0, len(w.fetches))
		for fid := range w.fetches {
			fids = append(fids, fid)
		}
		slices.SortFunc(fids, func(a, b int32) int { return cmp.Compare(m.fids.Str(a), m.fids.Str(b)) })
		for _, fid := range fids {
			m.link.Cancel(w.fetches[fid])
		}
		workers = append(workers, wr)
	}
	for _, tmr := range m.retryPending {
		tmr.Stop()
	}
	m.rescueTmr.Stop()

	m.nextID = 0
	m.byID = make([]*taskRec, 1)
	m.taskSlab, m.slabTaken = nil, 0
	m.cold = coldTable{}
	m.freeIDs, m.runIDs, m.freeN = idSet{}, idSet{}, 0
	m.doneLog = completionLog{}
	m.waiting = newWaitQueue()
	m.rtFree = nil
	m.wids = make(map[string]int32)
	m.freeWids = nil
	m.fids = intern.NewTable()
	m.workersBy = nil
	m.workerCount = 0
	m.roster, m.tombs = nil, 0
	m.avail = availIndex{}
	m.naiveOrder = nil
	m.idle = nil
	m.retryPending = make(map[int]simclock.Timer)
	m.retryResume = make(map[int]time.Time)
	m.rescuable = nil
	m.fstats = FailureStats{}
	m.admQueue = nil
	m.admSet = make(map[int]struct{})
	m.ostats = metrics.OverloadCounters{}
	m.inOverload = false
	m.completeCount = 0
	m.runningCount, m.idleCount, m.drainingCount = 0, 0, 0
	m.totalCap, m.totalUsed, m.busyUsage = resources.Zero, resources.Zero, resources.Zero
	m.rev++
	m.down = true
	m.downSince = now
	return snap, workers
}

// Restore rebuilds the master from a snapshot — the restarted process
// replaying its journal. Waiting tasks re-enter the queue in their
// former dispatch order, retry backoffs re-arm for their remaining
// delay, and every formerly running task enters the rescue window:
// for rescueWindow, a reattaching worker may resume it (AttachWorker);
// afterwards survivors are requeued with backoff, budget unchanged.
// Submissions buffered during the downtime are replayed last. The
// epoch advances by one restart.
func (m *Master) Restore(snap Snapshot, rescueWindow time.Duration) {
	if m.down {
		m.rec.Downtime += m.eng.Now().Sub(m.downSince)
	}
	m.down = false
	m.epoch = snap.Epoch + 1
	m.nextID = snap.NextID
	m.completeCount = snap.CompleteCount
	m.fstats = snap.Failures
	for i := range snap.Tasks {
		m.load(m.allocTask(), &snap.Tasks[i])
	}
	for _, c := range snap.Completed {
		m.doneLog.add(c.ID, c.Tag)
	}
	for _, id := range snap.QueueOrder {
		t := m.byID[id]
		m.waiting.Push(id, int(t.priority), t.res, m.catIDFor(t))
	}
	m.ostats = snap.Overload
	m.notePeakWaiting()
	for _, id := range snap.AdmissionBuffer {
		m.admQueue = append(m.admQueue, id)
		m.admSet[id] = struct{}{}
	}
	if len(m.admQueue) > 0 {
		// Still deflecting: a fresh overload interval opens at restore
		// time (the downtime itself was already accounted at Crash).
		m.enterOverload()
	}
	now := m.eng.Now()
	for _, rr := range snap.RetryResume {
		d := rr.Resume.Sub(now)
		if d < 0 {
			d = 0
		}
		m.scheduleRetry(m.byID[rr.ID], d)
	}
	m.rescuable = make(map[int]struct{})
	for i := range snap.Tasks {
		if snap.Tasks[i].State == TaskRunning {
			m.rescuable[snap.Tasks[i].ID] = struct{}{}
		}
	}
	if len(m.rescuable) > 0 {
		if rescueWindow < 0 {
			rescueWindow = 0
		}
		m.rescueTmr = m.eng.After(rescueWindow, "wq-rescue-window", m.expireRescue)
	}
	pending := m.downSubmits
	m.downSubmits = nil
	for _, spec := range pending {
		m.Submit(spec)
	}
	m.rev++
	m.scheduleDispatch()
}

// Down reports whether the master is crashed (between Crash and
// Restore).
func (m *Master) Down() bool { return m.down }

// RecoveryStats returns the rescue/fence counters accumulated across
// the master's restarts.
func (m *Master) RecoveryStats() metrics.RecoveryCounters { return m.rec }

// AttachWorker reattaches a worker after a restart: AddWorker plus
// rescue of the in-flight attempts it reports. An attempt resumes
// only when the restored record still shows the task running on this
// worker at the same generation; anything else — task completed,
// requeued and redispatched, or quarantined while the worker was away
// — is fenced and dropped (the worker discards the stale attempt).
// Rescued attempts finish after their remaining execution time minus
// the downtime already elapsed since detach; they do not consume a
// new retry-budget slot and are not fast-abort armed (their original
// dispatch deadline died with the old master).
func (m *Master) AttachWorker(w WorkerReattach) error {
	if m.down {
		return fmt.Errorf("wq: master is down; Restore before AttachWorker")
	}
	if err := m.AddWorker(w.ID, w.Capacity); err != nil {
		return err
	}
	sw := m.worker(w.ID)
	downFor := m.eng.Now().Sub(w.DetachedAt)
	if downFor < 0 {
		downFor = 0
	}
	for _, it := range w.Inflight {
		t := m.task(it.ID)
		if t == nil || t.state != TaskRunning || m.workerName(t) != w.ID || int(t.gen) != it.Gen {
			m.rec.FencedAttempts++
			continue
		}
		if _, pending := m.rescuable[it.ID]; !pending {
			m.rec.FencedAttempts++
			continue
		}
		delete(m.rescuable, it.ID)
		remaining := it.Remaining - downFor
		if remaining < 0 {
			remaining = 0
		}
		m.rescue(sw, t, remaining)
	}
	if len(m.rescuable) == 0 {
		m.rescueTmr.Stop()
	}
	return nil
}

// rescue resumes a running task on its reattached worker for the
// remaining execution time. Attempts and Gen are untouched: this is
// the same attempt continuing, not a redispatch.
func (m *Master) rescue(w *simWorker, t *taskRec, remaining time.Duration) {
	if err := w.pool.Acquire(t.alloc); err != nil {
		// The reported allocation no longer fits (inconsistent reattach
		// record); treat it like an unrescued task rather than corrupt
		// the pool accounting.
		m.rec.FencedAttempts++
		if m.failAttemptCharged(t, false) {
			m.enqueueFront([]int{int(t.id)})
		}
		return
	}
	m.syncAvail(w)
	if w.running.len() == 0 && !w.draining {
		m.idleCount--
	}
	m.runningCount++
	m.totalUsed = m.totalUsed.Add(t.alloc)
	t.wid = w.wid
	rt := m.newRunningTask()
	rt.task, rt.worker = t, w
	rt.aborted = false
	rt.pending = 0
	w.running.put(rt)
	m.runIDs.set(int(t.id))
	rt.executing = true
	rt.execStart = m.eng.Elapsed()
	rt.execUsage = t.used.Min(t.alloc)
	m.busyUsage = m.busyUsage.Add(rt.execUsage)
	rt.execTmr = m.eng.AfterArg(remaining, "wq-exec", m.execDoneFn, rt)
	m.rec.RescuedTasks++
}

// expireRescue requeues every running task whose worker did not
// reattach within the rescue window. The lost attempt is charged to
// the master's downtime, not the task: backoff applies, the retry
// budget does not.
func (m *Master) expireRescue() {
	ids := make([]int, 0, len(m.rescuable))
	for id := range m.rescuable {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	m.rescuable = nil
	var requeued []int
	for _, id := range ids {
		t := m.byID[id]
		m.rec.RequeuedUnrescued++
		m.fstats.Requeues++
		if m.failAttemptCharged(t, false) {
			requeued = append(requeued, id)
		}
	}
	m.enqueueFront(requeued)
}

// CompletedTags returns the non-empty Tag of every completed task,
// ordered by task ID — the master-side completion record a restarted
// workflow engine folds into its journal replay (flow.Recover's
// extraDone). It reads the completion log, not the task records,
// which are retired at completion, and it survives Crash and Restore.
func (m *Master) CompletedTags() []string {
	done := m.doneLog.sorted()
	tags := make([]string, len(done))
	for i, c := range done {
		tags[i] = c.Tag
	}
	return tags
}

// QuarantinedTags returns the Tag of every permanently failed task,
// ordered by task ID (flow.Recover's extraFailed).
func (m *Master) QuarantinedTags() []string {
	tags := make([]string, 0)
	for id := 1; id < len(m.byID); id++ {
		if t := m.task(id); t != nil && t.state == TaskQuarantined {
			tags = append(tags, m.tag(t))
		}
	}
	return tags
}

// logChunk is the completion log's chunk length. The log grows a
// fixed chunk at a time and never copies an entry, so a long run's log
// costs no append garbage.
const logChunk = 4096

// completionLog records the ID and Tag of every completed task with a
// non-empty Tag, in completion order.
type completionLog struct {
	chunks [][]CompletedTag
}

func (l *completionLog) add(id int, tag string) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == logChunk {
		l.chunks = append(l.chunks, make([]CompletedTag, 0, logChunk))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], CompletedTag{ID: id, Tag: tag})
}

// sorted returns a copy of the log ordered by task ID.
func (l *completionLog) sorted() []CompletedTag {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	out := make([]CompletedTag, 0, n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	slices.SortFunc(out, func(a, b CompletedTag) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
