package wq

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"hta/internal/intern"
	"hta/internal/metrics"
	"hta/internal/netsim"
	"hta/internal/resources"
	"hta/internal/simclock"
)

// Policy selects which fitting worker receives a task.
type Policy int

// Dispatch policies.
const (
	// FirstFit takes the first worker (in join order) with room —
	// Work Queue's default; cheap and keeps later workers drainable.
	FirstFit Policy = iota
	// BestFit takes the worker whose free capacity after placement
	// is smallest, consolidating load onto few workers.
	BestFit
	// WorstFit takes the worker with the most free capacity,
	// spreading load evenly.
	WorstFit
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Master is the simulated Work Queue master. It owns the task queue,
// the set of connected workers, and the dispatch policy. All methods
// must be called from the simulation goroutine.
//
// The dispatch hot path is indexed so the master scales in event
// rate: the waiting queue is bucketed by priority (no per-pass sort),
// cancellation removes through a position index, exclusive placement
// pulls from an idle-worker free list instead of scanning the roster,
// and a pass exits early when nothing affecting placement changed or
// when the largest free worker cannot fit the smallest waiting task.
type Master struct {
	eng    *simclock.Engine
	link   *netsim.Link // master egress; nil = transfers are free
	policy Policy

	// Task ids are dense (1..nextID), so the record index is an
	// id-indexed slice: byID[0] is unused. A million-task run looks
	// records up by array index instead of hashing a map key per
	// dispatch event. The master holds id only while byID[id] is
	// non-nil and still carries ID == id: a completed record is retired
	// by zeroing its ID (see retire) and may be reused for a later
	// submission, so every lookup that can reach a finished id goes
	// through task.
	nextID    int
	byID      []*taskRec
	taskSlab  []taskRec // slab-allocated record storage; see allocTask
	slabTaken int       // records handed out from fresh slab capacity
	cold      coldTable // the records' pointer-bearing fields; see coldRec
	doneLog   completionLog
	waiting   *waitQueue

	// base holds the engine's base instant: record stamps are offsets
	// from it. doneWorker names the completing task's worker while its
	// OnComplete subscribers run. scratch is the view ForEachWaiting
	// and ForEachRunning fill per visit.
	base       timeBase
	doneWorker string
	scratch    Task

	// The free list of retired records, kept by the ID each retired
	// under: freeIDs holds id while byID[id] is a retired record
	// awaiting reuse; freeN counts its members, at most retiredCap.
	freeIDs idSet
	freeN   int
	rtFree  []*runningTask // recycled runningTask records
	rtSlab  []runningTask  // allocation slab for fresh records
	wkSlab  []simWorker    // allocation slab for joining workers; see AddWorker

	// runIDs holds id while task id sits in some connected worker's
	// running set, so ForEachRunning visits running tasks in ascending
	// id order without a copy or a sort (the planner's completion heap
	// breaks ties by push order). Set and clear it beside every put
	// into and remove from a running set.
	runIDs idSet

	// Shared-file names and task categories are interned into dense
	// int32 ids at the API boundary (Submit, staging), so the per-event
	// books — each worker's file cache, the queue's category counts —
	// are slice-indexed instead of string-keyed. A worker id maps to a
	// slot of workersBy only while the worker is connected:
	// removeWorker releases the id and puts the slot on freeWids for
	// the next join, so the table stays sized to the peak live fleet
	// under pod churn.
	wids        map[string]int32 // connected worker id -> wid
	freeWids    []int32          // released wids, reused first
	fids        *intern.Table    // shared-file name -> dense fid
	cats        *intern.Table    // task category -> dense catID
	workersBy   []*simWorker     // by wid; nil while free
	workerCount int
	nextJoinSeq uint64
	idle        idleHeap
	freeFetch   []func() // free-transfer fetch arrivals batched per dispatch

	// Per-category estimator memo, valid for one estimator revision:
	// estRev[catID] holds rev+1 from the last probe (0 = never
	// probed). Only populated when the estimator declares revisions
	// (RevEstimator); otherwise every probe goes to the estimator.
	revEst    RevEstimator
	estRes    []resources.Vector // by catID
	estResOK  []bool             // by catID
	estResRev []uint64           // by catID

	// roster holds workers by slot in join order; departures leave nil
	// tombstones (compacted once they dominate) so slots stay stable
	// for the avail index. avail is the segment tree FirstFit descends
	// instead of scanning; naivePlace retains the linear scan as the
	// placement oracle.
	roster     []*simWorker
	tombs      int
	avail      availIndex
	naivePlace bool
	naiveOrder []string // join-order id list for the retained naive scan

	estimator  Estimator
	onComplete []func(Result)
	onFailed   []func(Task)

	retry        RetryPolicy
	retryPending map[int]simclock.Timer // task ID -> backoff timer
	retryResume  map[int]time.Time      // task ID -> backoff deadline (for Snapshot)
	fstats       FailureStats

	// Bounded admission (see admission.go): submissions past MaxWaiting
	// park in admQueue (FIFO of task IDs) and are shed past its cap.
	admission     AdmissionPolicy
	admQueue      []int
	admSet        map[int]struct{}
	onRejected    []func(Task)
	ostats        metrics.OverloadCounters
	inOverload    bool
	overloadSince time.Time

	// Crash/restore state (see snapshot.go): epoch counts restarts,
	// rescuable holds running tasks awaiting their worker's reattach,
	// down marks the window between Crash and Restore.
	epoch       int
	rescuable   map[int]struct{}
	rescueTmr   simclock.Timer
	down        bool
	downSince   time.Time
	downSubmits []TaskSpec
	rec         metrics.RecoveryCounters

	dispatchPending bool
	dispatchFn      func() // persistent coalesced-dispatch closure
	completeCount   int

	// Incremental aggregates, kept in lockstep with the queue and the
	// worker pools so Stats, BusyCPU and the samplers are O(1).
	runningCount  int
	idleCount     int // idle, non-draining workers
	drainingCount int
	totalCap      resources.Vector // summed capacity of connected workers
	totalUsed     resources.Vector // summed allocations on connected workers
	busyUsage     resources.Vector // summed clamped usage of executing tasks

	// rev is bumped by every mutation that could let a dispatch pass
	// place a task (queue growth, capacity release, policy/estimator
	// change). A pass records the rev it ran at; a pass at an
	// unchanged rev is a guaranteed no-op and returns immediately.
	rev         uint64
	lastPassRev uint64
}

// simWorker is the master-side state of a simulated worker. Shared
// files are tracked by interned fid: the cache is a dense bitmap and
// the in-flight books hash an int32 instead of the file name.
type simWorker struct {
	id       string
	wid      int32 // index into Master.workersBy while connected
	joinSeq  uint64
	slot     int                // roster index; -1 once removed
	pool     resources.Pool     // embedded: one fewer allocation and cache line per worker
	cache    []bool             // by fid: shared files present
	cached   int                // count of set cache entries
	fetching map[int32][]func() // shared files in flight -> waiters
	fetches  map[int32]*netsim.Transfer
	running  runningSet
	draining bool
	onDrain  func()
	joinedAt time.Time
}

// hasFile reports whether the shared file is cached on the worker.
func (w *simWorker) hasFile(fid int32) bool {
	return int(fid) < len(w.cache) && w.cache[fid]
}

// setFile marks the shared file cached on the worker.
func (w *simWorker) setFile(fid int32) {
	for int(fid) >= len(w.cache) {
		w.cache = append(w.cache, false)
	}
	if !w.cache[fid] {
		w.cache[fid] = true
		w.cached++
	}
}

type runningTask struct {
	task      *taskRec
	worker    *simWorker
	pending   int // outstanding input fetches
	inTr      *netsim.Transfer
	outTr     *netsim.Transfer
	execTmr   simclock.Timer
	abortTmr  simclock.Timer
	execDone  func() // persistent exec-complete closure (see newRunningTask)
	abortFn   func() // persistent fast-abort closure
	fetchFn   func() // persistent shared-file-arrival closure
	inFn      func() // persistent input-transfer-complete closure
	outFn     func() // persistent output-transfer-complete closure
	executing bool
	aborted   bool             // attempt stopped; late fetch callbacks must not run it
	execUsage resources.Vector // clamped usage while executing
	// execStart is the engine-relative instant execution (not staging)
	// began — an Elapsed() offset, not a time.Time, so the
	// once-per-completion core·second accounting is one integer
	// subtraction instead of wall/mono time arithmetic.
	execStart time.Duration
}

// runningSet holds a worker's in-flight attempts in a pair of small
// parallel slices. A worker runs at most a handful of tasks at once
// (capacity-bound), so linear scans beat a map's hashing and delete
// churn in the dispatch hot path — and the scan compares packed
// int32 ids without dereferencing each attempt's task record.
// Attempts are removed from the set before their record is recycled,
// so every resident entry has a valid task pointer.
type runningSet struct {
	ids []int32
	rts []*runningTask
	// Inline backing for typical multi-core workers: the slices point
	// here until a worker runs more than four tasks at once, so the
	// common roster pays no per-worker set allocation at all. Safe
	// because simWorkers live in slabs and are never copied.
	idsBuf [4]int32
	rtsBuf [4]*runningTask
}

func (s *runningSet) get(id int) *runningTask {
	for i, x := range s.ids {
		if int(x) == id {
			return s.rts[i]
		}
	}
	return nil
}

func (s *runningSet) put(rt *runningTask) {
	if s.ids == nil {
		s.ids = s.idsBuf[:0]
		s.rts = s.rtsBuf[:0]
	}
	s.ids = append(s.ids, rt.task.id)
	s.rts = append(s.rts, rt)
}

func (s *runningSet) remove(id int) {
	for i, x := range s.ids {
		if int(x) == id {
			n := len(s.rts) - 1
			copy(s.ids[i:], s.ids[i+1:])
			copy(s.rts[i:], s.rts[i+1:])
			s.rts[n] = nil
			s.ids, s.rts = s.ids[:n], s.rts[:n]
			return
		}
	}
}

func (s *runningSet) len() int { return len(s.rts) }

// idSet is a set of task IDs kept as a bitset, with a low-water word:
// every word below lo is zero, so a scan for the lowest member skips
// the prefix that earlier clears emptied.
type idSet struct {
	words []uint64
	lo    int
}

func (s *idSet) set(id int) {
	i := id >> 6
	for i >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[i] |= 1 << (id & 63)
	if i < s.lo {
		s.lo = i
	}
}

func (s *idSet) clear(id int) { s.words[id>>6] &^= 1 << (id & 63) }

// low advances the low-water word past cleared words and returns it:
// the index of the first non-zero word, or len(words) when the set is
// empty.
func (s *idSet) low() int {
	for s.lo < len(s.words) && s.words[s.lo] == 0 {
		s.lo++
	}
	return s.lo
}

// lowest returns the smallest member, or 0 (never a task ID) when the
// set is empty.
func (s *idSet) lowest() int {
	i := s.low()
	if i == len(s.words) {
		return 0
	}
	return i<<6 | bits.TrailingZeros64(s.words[i])
}

// NewMaster creates a master on the given engine. link models the
// master's egress bandwidth; pass nil to make data movement free.
func NewMaster(eng *simclock.Engine, link *netsim.Link) *Master {
	m := &Master{
		eng:          eng,
		link:         link,
		byID:         make([]*taskRec, 1), // id 0 unused
		base:         timeBase{eng.Now().Add(-eng.Elapsed())},
		waiting:      newWaitQueue(),
		wids:         make(map[string]int32),
		fids:         intern.NewTable(),
		cats:         intern.NewTable(),
		retryPending: make(map[int]simclock.Timer),
		retryResume:  make(map[int]time.Time),
		admSet:       make(map[int]struct{}),
		lastPassRev:  ^uint64(0),
	}
	// One persistent closure for the coalesced dispatch event; a fresh
	// closure per completion shows up as allocator time at 100k scale.
	m.dispatchFn = func() {
		m.dispatchPending = false
		m.dispatchOnce()
	}
	return m
}

// SetPolicy selects the dispatch policy (default FirstFit).
func (m *Master) SetPolicy(p Policy) {
	m.policy = p
	m.rev++
	m.scheduleDispatch()
}

// SetEstimator installs the resource estimator consulted for tasks
// with unknown requirements. An estimator that also implements
// RevEstimator has its per-category predictions memoized between
// revisions, so a dispatch pass probes it once per category per
// observation batch instead of once per waiting task.
func (m *Master) SetEstimator(e Estimator) {
	m.estimator = e
	m.revEst, _ = e.(RevEstimator)
	m.estRes, m.estResOK, m.estResRev = nil, nil, nil
	m.rev++
	m.scheduleDispatch()
}

// task returns the record for an id, or nil for an id the master does
// not hold: unknown, or completed and retired.
func (m *Master) task(id int) *taskRec {
	if id <= 0 || id >= len(m.byID) {
		return nil
	}
	if t := m.byID[id]; t != nil && int(t.id) == id {
		return t
	}
	return nil
}

// setTask registers a record under its dense id. Growth doubles
// explicitly: append's 1.25× policy for large slices would re-copy
// the million-pointer index four times over instead of twice.
func (m *Master) setTask(t *taskRec) {
	id := int(t.id)
	if id >= len(m.byID) {
		n := id + 1
		if n > cap(m.byID) {
			c := 2 * cap(m.byID)
			if c < 1024 {
				c = 1024
			}
			if c < n {
				c = n
			}
			b := make([]*taskRec, n, c)
			copy(b, m.byID)
			m.byID = b
		} else {
			m.byID = m.byID[:n]
		}
	}
	m.byID[id] = t
}

// worker returns the connected worker with the given id, or nil.
func (m *Master) worker(id string) *simWorker {
	wid, ok := m.wids[id]
	if !ok {
		return nil
	}
	return m.workersBy[wid]
}

// catIDFor returns the waiting queue's category key: the interned
// category for tasks whose placement consults the estimator,
// intern.None for declared-requirement tasks (their category never
// gates dispatch).
func (m *Master) catIDFor(t *taskRec) int32 {
	if !t.res.IsZero() {
		return intern.None
	}
	return t.cat
}

// OnComplete subscribes to task completions. The Result carries the
// whole completed record; once every subscriber has run, the master
// releases the record and Task no longer reports it.
func (m *Master) OnComplete(fn func(Result)) { m.onComplete = append(m.onComplete, fn) }

// retiredCap bounds the free list of retired records at four full
// slabs: enough to carry a whole 10k-task workflow stage over to the
// next stage's submissions, without holding a pointer per task of a
// burst that is never followed by more submissions.
const retiredCap = 16384

// allocTask hands out record storage: the retired record with the
// lowest former ID first, else the next record of a geometrically
// growing slab (256 up to 4096 records each), so a million-task run
// costs hundreds of allocations, not millions, and a bag's last slab
// leaves at most 4095 records of slack. Records hold no pointer, so
// the slabs are noscan: the collector neither marks nor scans them.
// Slabs are only ever appended to within capacity, so handed-out
// pointers stay valid. A fresh record carries its cold-table index
// (see coldTable); the caller overwrites everything else.
//
// Reuse in former-ID order keeps record addresses ascending with IDs:
// a burst of submissions takes over the records of an earlier burst in
// the order that burst was issued, which its fresh slab laid out
// contiguously. Dispatch and the planner walk the waiting queue in ID
// order, so they keep streaming through memory; taking the most
// recently retired record instead (a LIFO stack) scattered each
// 10k-task stage of a staged workflow over its predecessor's
// completion order and cost that workflow about 15 % of its
// throughput on a 2-core x86 box.
func (m *Master) allocTask() *taskRec {
	if m.freeN > 0 {
		id := m.freeIDs.lowest()
		m.freeIDs.clear(id)
		m.freeN--
		return m.byID[id]
	}
	pos := int32(m.slabTaken)
	m.slabTaken++
	if len(m.taskSlab) == cap(m.taskSlab) {
		c := 2 * cap(m.taskSlab)
		if c < 256 {
			c = 256
		} else if c > 4096 {
			c = 4096
		}
		m.taskSlab = make([]taskRec, 0, c)
	}
	// Extend into already-zeroed slab capacity rather than appending a
	// composite literal, which would write the record twice.
	n := len(m.taskSlab)
	m.taskSlab = m.taskSlab[:n+1]
	t := &m.taskSlab[n]
	t.cold = pos
	return t
}

// newRunningTask takes a dispatch record from the free list or makes
// one. The exec-complete closure is built once per record and reads
// the record's current fields, so it survives recycling.
func (m *Master) newRunningTask() *runningTask {
	if n := len(m.rtFree); n > 0 {
		rt := m.rtFree[n-1]
		m.rtFree[n-1] = nil
		m.rtFree = m.rtFree[:n-1]
		return rt
	}
	// Fresh records come out of a slab: at peak the dispatch storm has
	// hundreds of thousands of attempts in flight, and one slab alloc
	// per 4096 beats one per record.
	if len(m.rtSlab) == 0 {
		m.rtSlab = make([]runningTask, 4096)
	}
	rt := &m.rtSlab[0]
	m.rtSlab = m.rtSlab[1:]
	rt.execDone = func() {
		m.fstats.UsefulCoreSeconds += m.clearExecuting(rt)
		m.sendOutput(rt)
	}
	return rt
}

// recycleRunningTask returns a record to the free list, but only when
// every callback that captured it has been consumed (fetch waiters,
// input/output transfers); records from cancel/kill paths may still
// be referenced and are left to the garbage collector.
func (m *Master) recycleRunningTask(rt *runningTask) {
	if rt.pending != 0 || rt.inTr != nil || rt.outTr != nil {
		return
	}
	rt.task, rt.worker = nil, nil
	rt.execTmr = simclock.Timer{}
	rt.abortTmr = simclock.Timer{}
	m.rtFree = append(m.rtFree, rt)
}

// Submit enqueues a task and returns its ID. While the master is down
// (between Crash and Restore) submissions buffer and are replayed —
// with fresh IDs — when the master comes back; 0 is returned for
// them, like a scheduler deferring a task internally. With an
// admission policy set, submissions past the queue cap park in the
// admission buffer and are shed past its depth (see admission.go);
// check Task(id).State for the Rejected outcome.
func (m *Master) Submit(spec TaskSpec) int {
	if m.down {
		m.downSubmits = append(m.downSubmits, spec)
		return 0
	}
	m.nextID++
	t := m.allocTask()
	*t = taskRec{
		cold:      t.cold,
		id:        int32(m.nextID),
		ref:       spec.Ref,
		cat:       m.cats.Intern(spec.Category),
		wid:       -1,
		state:     TaskWaiting,
		priority:  int64(spec.Priority),
		res:       spec.Resources,
		exec:      spec.Profile.ExecDuration,
		used:      spec.Profile.Usage(),
		inputMB:   spec.InputMB,
		outputMB:  spec.OutputMB,
		submitted: m.now(),
		started:   noTime,
		finished:  noTime,
	}
	if len(spec.SharedInputs) > 0 {
		spec.SharedInputs = append([]File(nil), spec.SharedInputs...)
	}
	m.setCold(t, spec.Tag, spec.Command, spec.SharedInputs)
	m.setTask(t)
	m.admit(t)
	return m.nextID
}

// Task returns a copy of the task with the given ID while the master
// holds it: waiting, running, canceled, quarantined or rejected. A
// completed task is released once its Result has reached every
// OnComplete subscriber (Task still answers inside the callback), so
// Task reports false for it afterwards: the full record went out in
// the Result, and CompletedCount and CompletedTags keep the master's
// completion record.
func (m *Master) Task(id int) (Task, bool) {
	t := m.task(id)
	if t == nil {
		return Task{}, false
	}
	return m.view(t), true
}

// AddWorker connects a worker with the given capacity.
func (m *Master) AddWorker(id string, capacity resources.Vector) error {
	if id == "" {
		return fmt.Errorf("wq: worker with empty id")
	}
	if _, dup := m.wids[id]; dup {
		return fmt.Errorf("wq: worker %q already connected", id)
	}
	if !capacity.AnyPositive() {
		return fmt.Errorf("wq: worker %q with no capacity", id)
	}
	var wid int32
	if n := len(m.freeWids); n > 0 {
		wid = m.freeWids[n-1]
		m.freeWids = m.freeWids[:n-1]
	} else {
		wid = int32(len(m.workersBy))
		m.workersBy = append(m.workersBy, nil)
	}
	m.wids[id] = wid
	// Workers come out of a slab: a 100k-worker roster costs dozens of
	// allocations instead of hundreds of thousands (the fetch maps are
	// built lazily at first shared-file use). Handed-out pointers stay
	// valid because slabs are only appended to within capacity; a
	// removed worker's record is unreachable garbage inside its slab,
	// which churn-heavy runs amortize at a few hundred bytes per
	// departure.
	if len(m.wkSlab) == cap(m.wkSlab) {
		c := 2 * cap(m.wkSlab)
		if c < 256 {
			c = 256
		} else if c > 4096 {
			c = 4096
		}
		m.wkSlab = make([]simWorker, 0, c)
	}
	m.wkSlab = append(m.wkSlab, simWorker{
		id:       id,
		wid:      wid,
		joinSeq:  m.nextJoinSeq,
		pool:     resources.MakePool(capacity),
		joinedAt: m.eng.Now(),
	})
	w := &m.wkSlab[len(m.wkSlab)-1]
	m.nextJoinSeq++
	m.workersBy[wid] = w
	m.workerCount++
	m.rosterAppend(w)
	m.totalCap = m.totalCap.Add(capacity)
	m.idleCount++
	m.markIdle(w)
	m.rev++
	m.scheduleDispatch()
	return nil
}

// DrainWorker stops dispatching to the worker and invokes onDrained
// once its running tasks finish (immediately if it is idle). The
// worker is removed from the roster when drained.
func (m *Master) DrainWorker(id string, onDrained func()) error {
	w := m.worker(id)
	if w == nil {
		return fmt.Errorf("wq: worker %q not connected", id)
	}
	if !w.draining {
		w.draining = true
		m.drainingCount++
		m.syncAvail(w)
		if w.running.len() == 0 {
			m.idleCount--
		}
	}
	w.onDrain = onDrained
	if w.running.len() == 0 {
		m.finishDrain(w)
	}
	return nil
}

// KillWorker abruptly disconnects a worker: its running tasks are
// returned to the waiting queue (preserving submission order, subject
// to the retry policy's backoff and quarantine) and all of its
// transfers are canceled. This is what a pod deletion does to the
// worker inside it.
func (m *Master) KillWorker(id string) error {
	w := m.worker(id)
	if w == nil {
		return fmt.Errorf("wq: worker %q not connected", id)
	}
	m.fstats.WorkerKills++
	// Process tasks in submission order so retry timers and quarantine
	// callbacks are scheduled deterministically.
	ids := make([]int, 0, w.running.len())
	for _, rt := range w.running.rts {
		ids = append(ids, int(rt.task.id))
	}
	slices.Sort(ids)
	var requeued []int
	for _, tid := range ids {
		rt := w.running.get(tid)
		m.stopTask(rt)
		t := rt.task
		m.leaveWorker(t)
		m.fstats.Requeues++
		if m.failAttempt(t) {
			requeued = append(requeued, tid)
		}
	}
	m.removeWorker(w)
	// Requeue at the front in submission order: these are the oldest
	// outstanding tasks.
	m.enqueueFront(requeued)
	m.rev++
	m.scheduleDispatch()
	return nil
}

// stopTask cancels a running task's transfers and execution timer,
// unwinding the executing-usage aggregate. Execution performed by the
// stopped attempt is accounted as lost work.
func (m *Master) stopTask(rt *runningTask) {
	if rt.inTr != nil {
		rt.inTr.Cancel()
	}
	if rt.outTr != nil {
		rt.outTr.Cancel()
	}
	rt.execTmr.Stop()
	rt.abortTmr.Stop()
	rt.aborted = true
	m.fstats.LostCoreSeconds += m.clearExecuting(rt)
}

// clearExecuting ends the attempt's executing phase and returns the
// core·seconds it consumed, for the caller to classify as useful
// (completion) or lost (kill/abort/cancel).
func (m *Master) clearExecuting(rt *runningTask) float64 {
	if !rt.executing {
		return 0
	}
	rt.executing = false
	m.busyUsage = m.busyUsage.Sub(rt.execUsage)
	elapsed := (m.eng.Elapsed() - rt.execStart).Seconds()
	return elapsed * float64(rt.execUsage.MilliCPU) / 1000
}

func (m *Master) removeWorker(w *simWorker) {
	// Cancel shared-file fetches still in flight for this worker —
	// they outlive the tasks that requested them (the file is cached
	// for future tasks), so both the kill and drain paths would
	// otherwise leave a dead worker consuming link capacity. Sorted
	// name order keeps link bookkeeping deterministic (fids are
	// assigned in first-fetch order, so they must be sorted by the
	// names they intern, not by id).
	fids := make([]int32, 0, len(w.fetches))
	for fid := range w.fetches {
		fids = append(fids, fid)
	}
	slices.SortFunc(fids, func(a, b int32) int { return cmp.Compare(m.fids.Str(a), m.fids.Str(b)) })
	for _, fid := range fids {
		w.fetches[fid].Cancel()
		delete(w.fetches, fid)
	}
	m.workersBy[w.wid] = nil
	delete(m.wids, w.id)
	m.freeWids = append(m.freeWids, w.wid)
	m.workerCount--
	m.totalCap = m.totalCap.Sub(w.pool.Capacity())
	m.totalUsed = m.totalUsed.Sub(w.pool.Used())
	m.runningCount -= w.running.len()
	for _, id := range w.running.ids {
		m.runIDs.clear(int(id))
	}
	if w.draining {
		m.drainingCount--
	} else if w.running.len() == 0 {
		m.idleCount--
	}
	m.rosterRemove(w)
}

// connected reports whether w is still the live worker under its id
// (false once removed, or after a Crash reset the worker index). The
// pointer compare keeps a removed worker from aliasing a newer one
// that reuses its slot.
func (m *Master) connected(w *simWorker) bool {
	return int(w.wid) < len(m.workersBy) && m.workersBy[w.wid] == w
}

func (m *Master) finishDrain(w *simWorker) {
	if !m.connected(w) {
		// Already removed: a completion callback may call DrainWorker
		// on the just-idled worker, finishing the drain before the
		// completion's own drain check runs. Repeating removeWorker
		// would double-subtract the capacity aggregates.
		return
	}
	m.removeWorker(w)
	if w.onDrain != nil {
		cb := w.onDrain
		w.onDrain = nil
		m.eng.After(0, "wq-drained", cb)
	}
	m.scheduleDispatch()
}

// Workers returns the connected worker IDs in join order.
func (m *Master) Workers() []string {
	out := make([]string, 0, m.workerCount)
	for _, w := range m.roster {
		if w != nil {
			out = append(out, w.id)
		}
	}
	return out
}

// WorkerCapacity returns a connected worker's capacity.
func (m *Master) WorkerCapacity(id string) (resources.Vector, bool) {
	w := m.worker(id)
	if w == nil {
		return resources.Zero, false
	}
	return w.pool.Capacity(), true
}

// WorkerUsage reports the instantaneous resource consumption of the
// worker's executing tasks (transfer phases consume no CPU), clamped
// to each task's allocation — the signal a metrics server scrapes
// from the worker pod.
func (m *Master) WorkerUsage(id string) resources.Vector {
	w := m.worker(id)
	if w == nil {
		return resources.Zero
	}
	var u resources.Vector
	for _, rt := range w.running.rts {
		if rt.executing {
			u = u.Add(rt.execUsage)
		}
	}
	return u
}

// BusyCPU returns the summed executing-task CPU consumption across
// every connected worker in millicores — the aggregate the samplers
// previously recomputed by walking the roster each tick.
func (m *Master) BusyCPU() int64 { return m.busyUsage.MilliCPU }

// WorkerBusy reports whether the worker has running tasks.
func (m *Master) WorkerBusy(id string) bool {
	w := m.worker(id)
	return w != nil && w.running.len() > 0
}

// AppendIdleWorkers appends the ids of connected, non-draining workers
// with no running task to buf, in join order, and returns it — a scale-
// down's candidates in one roster walk, with no id lookup per worker.
func (m *Master) AppendIdleWorkers(buf []string) []string {
	for _, w := range m.roster {
		if w != nil && !w.draining && w.running.len() == 0 {
			buf = append(buf, w.id)
		}
	}
	return buf
}

// --- dispatch ---

// scheduleDispatch coalesces dispatch passes into a single
// zero-delay event.
func (m *Master) scheduleDispatch() {
	if m.dispatchPending {
		return
	}
	m.dispatchPending = true
	m.eng.After(0, "wq-dispatch", m.dispatchFn)
}

// RevEstimator is an Estimator whose predictions only change when its
// revision does. The master memoizes per-category estimates against
// the revision, so steady-state dispatch passes skip the estimator's
// lookup and aggregation entirely (the monitor bumps its revision on
// every observation batch).
type RevEstimator interface {
	Estimator
	// EstimateRev returns the current estimate revision. Any change
	// that could alter an estimate must change the revision.
	EstimateRev() uint64
}

// estimateResourcesCat probes the estimator for an interned category,
// memoized per estimator revision when the estimator declares one.
func (m *Master) estimateResourcesCat(catID int32) (resources.Vector, bool) {
	if m.estimator == nil || catID < 0 {
		return resources.Zero, false
	}
	if m.revEst == nil {
		return m.estimator.EstimateResources(m.cats.Str(catID))
	}
	rev := m.revEst.EstimateRev() + 1 // 0 marks never-probed slots
	for int(catID) >= len(m.estResRev) {
		m.estRes = append(m.estRes, resources.Zero)
		m.estResOK = append(m.estResOK, false)
		m.estResRev = append(m.estResRev, 0)
	}
	if m.estResRev[catID] == rev {
		return m.estRes[catID], m.estResOK[catID]
	}
	v, ok := m.revEst.EstimateResources(m.cats.Str(catID))
	m.estRes[catID], m.estResOK[catID], m.estResRev[catID] = v, ok, rev
	return v, ok
}

// resolveResources determines the allocation for a task: declared
// size, an estimator prediction for its category, or unknown. catID
// is the task's interned category (intern.None when declared).
func (m *Master) resolveResources(t *taskRec, catID int32) (resources.Vector, bool) {
	if !t.res.IsZero() {
		return t.res, true
	}
	if v, ok := m.estimateResourcesCat(catID); ok && !v.IsZero() {
		return v, true
	}
	return resources.Zero, false
}

// dispatchOnce walks the waiting queue — highest priority first,
// submission order within a priority — and places every task that
// fits somewhere (later tasks may backfill around a blocked
// head-of-line task, as Work Queue does).
//
// The pass is indexed three ways: it returns immediately when nothing
// affecting placement changed since the last pass, it returns when
// every waiting task declares requirements and even the queue's
// smallest cannot fit the largest free worker, and each task is
// rejected in O(1) against the max-free bound before any roster scan.
//
// After the pass, buffered submissions are admitted into whatever
// room the placements opened under the admission cap (never mid-scan:
// the queue must not grow while Scan walks it).
func (m *Master) dispatchOnce() {
	m.dispatchPass()
	m.drainAdmission()
}

func (m *Master) dispatchPass() {
	if m.waiting.Len() == 0 || m.workerCount == 0 {
		return
	}
	if m.rev == m.lastPassRev {
		// A pass already ran against this exact queue/capacity/config
		// state and placed everything placeable.
		return
	}
	m.lastPassRev = m.rev
	// maxFree bounds every eligible worker's available capacity from
	// above for the whole pass: placements only shrink frees. A failed
	// full roster scan refreshes it to the exact current value.
	maxFree := m.maxFreeCapacity()
	if m.queueStalled(maxFree) {
		return
	}
	m.waiting.Scan(func(id int, catID int32, declared resources.Vector) (bool, bool) {
		if !declared.IsZero() {
			// Declared requirement: gate on the inline entry without
			// touching the task record at all.
			if !declared.Fits(maxFree) {
				return false, false
			}
			placed, scanned, full := m.placeKnown(m.byID[id], declared)
			if !placed && full {
				maxFree = scanned
				// With the refreshed exact bound, stop the pass once
				// nothing left in the queue can be placed.
				if m.queueStalled(maxFree) {
					return false, true
				}
			}
			return placed, false
		}
		t := m.byID[id]
		res, known := m.resolveResources(t, catID)
		if !known {
			return m.placeExclusive(t), false
		}
		if !res.Fits(maxFree) {
			return false, false
		}
		placed, scanned, full := m.placeKnown(t, res)
		if !placed && full {
			maxFree = scanned
			if m.queueStalled(maxFree) {
				return false, true
			}
		}
		return placed, false
	})
}

// queueStalled reports that no waiting task can be placed on any
// worker when maxFree bounds every worker's free capacity from above.
// Declared requirements are bounded below by the queue's minReq;
// undeclared tasks all place through their category's estimate, so
// each waiting category is checked once. A category with no estimate
// yet could still take the exclusive-placement path, which needs an
// idle worker. Estimates cannot change mid-pass (the pass is a single
// event), so the answer stays valid for the rest of the pass.
func (m *Master) queueStalled(maxFree resources.Vector) bool {
	if m.waiting.MinFits(maxFree) {
		return false
	}
	if m.waiting.unknownRes == 0 {
		return true
	}
	stalled := true
	m.waiting.ForEachUnknownCategory(func(catID int32, _ int) {
		if !stalled {
			return
		}
		est, ok := m.estimateResourcesCat(catID)
		if ok && !est.IsZero() {
			if est.Fits(maxFree) {
				stalled = false
			}
			return
		}
		if m.idleCount > 0 {
			stalled = false
		}
	})
	return stalled
}

// maxFreeCapacity returns the component-wise maximum free capacity
// over non-draining workers: the avail-index root in O(1), or the
// retained roster scan in naive mode.
func (m *Master) maxFreeCapacity() resources.Vector {
	if !m.naivePlace {
		return m.avail.maxFree()
	}
	var free resources.Vector
	for _, wid := range m.naiveOrder {
		w := m.worker(wid)
		if !w.draining {
			free = free.Max(w.pool.Available())
		}
	}
	return free
}

// Cancel withdraws a task. A waiting task leaves the queue; a running
// task is stopped on its worker and its allocation freed, or, restored
// after a crash and not yet rescued, leaves the rescue window. Canceling a
// finished or already-canceled task is an error: an id the master
// issued but no longer holds was completed and retired. No completion
// callback fires for canceled tasks.
func (m *Master) Cancel(id int) error {
	t := m.task(id)
	if t == nil {
		if id > 0 && id <= m.nextID {
			return fmt.Errorf("wq: task %d already completed", id)
		}
		return fmt.Errorf("wq: task %d not found", id)
	}
	switch t.state {
	case TaskWaiting:
		if m.cancelBuffered(id) {
			// Was parked in the admission buffer; never entered the queue.
		} else if tmr, pending := m.retryPending[id]; pending {
			tmr.Stop()
			delete(m.retryPending, id)
			delete(m.retryResume, id)
		} else {
			m.waiting.Remove(id, t.res, m.catIDFor(t))
			m.drainAdmission() // the cancellation freed a slot under the cap
		}
		m.rev++
	case TaskRunning:
		if t.wid < 0 {
			// Restored and awaiting its worker's reattach: no attempt
			// runs at the master, and a reattach reporting it is fenced
			// once the task is canceled.
			delete(m.rescuable, id)
			if len(m.rescuable) == 0 {
				m.rescueTmr.Stop()
			}
			break
		}
		w := m.workersBy[t.wid]
		m.detachRunning(w.running.get(id))
		if w.draining && w.running.len() == 0 {
			defer m.finishDrain(w)
		}
		m.scheduleDispatch()
	default:
		return fmt.Errorf("wq: task %d is %v, cannot cancel", id, t.state)
	}
	t.state = TaskCanceled
	t.finished = m.now()
	return nil
}

// placeKnown scans the roster for a worker fitting res under the
// current policy. When the scan visited the whole roster without
// placing (fullScan && !placed), scannedMax carries the exact
// component-wise max free capacity observed, letting the caller
// tighten its pass-wide bound.
func (m *Master) placeKnown(t *taskRec, res resources.Vector) (placed bool, scannedMax resources.Vector, fullScan bool) {
	if m.policy == FirstFit && !m.naivePlace {
		// Indexed path: leftmost-fit descent through the avail tree.
		// On a miss the root is the exact max free, so the caller's
		// bound refresh costs nothing extra.
		slot := m.avail.findFirst(res)
		if slot < 0 {
			return false, m.avail.maxFree(), true
		}
		m.startTask(t, m.roster[slot], res, false)
		return true, resources.Zero, false
	}
	var chosen *simWorker
	var chosenFree int64
	// consider scores one worker under the current policy; true means
	// a FirstFit placement ended the scan.
	consider := func(w *simWorker) bool {
		if w.draining {
			return false
		}
		avail := w.pool.Available()
		scannedMax = scannedMax.Max(avail)
		if !res.Fits(avail) {
			return false
		}
		if m.policy == FirstFit {
			m.startTask(t, w, res, false)
			return true
		}
		// Score by free CPU after placement (the binding dimension
		// for HTC tasks); memory breaks ties implicitly via order.
		free := avail.Sub(res).MilliCPU
		better := chosen == nil ||
			(m.policy == BestFit && free < chosenFree) ||
			(m.policy == WorstFit && free > chosenFree)
		if better {
			chosen, chosenFree = w, free
		}
		return false
	}
	if m.naivePlace {
		// The retained scan, verbatim cost model included: join-order
		// id list with a lookup per worker.
		for _, wid := range m.naiveOrder {
			if consider(m.worker(wid)) {
				return true, scannedMax, false
			}
		}
	} else {
		for _, w := range m.roster {
			if w != nil && consider(w) {
				return true, scannedMax, false
			}
		}
	}
	if chosen == nil {
		return false, scannedMax, true
	}
	m.startTask(t, chosen, res, false)
	return true, scannedMax, true
}

// placeExclusive places an unknown-requirement task alone on the
// first idle worker in join order, via the idle free list.
func (m *Master) placeExclusive(t *taskRec) bool {
	w := m.takeIdle()
	if w == nil {
		return false
	}
	m.startTask(t, w, w.pool.Capacity(), true)
	return true
}

func (m *Master) startTask(t *taskRec, w *simWorker, alloc resources.Vector, exclusive bool) {
	if err := w.pool.Acquire(alloc); err != nil {
		panic(fmt.Sprintf("wq: dispatch accounting bug: %v", err))
	}
	m.syncAvail(w)
	if w.running.len() == 0 && !w.draining {
		m.idleCount--
	}
	m.runningCount++
	m.totalUsed = m.totalUsed.Add(alloc)
	t.state = TaskRunning
	t.wid = w.wid
	t.started = m.now()
	t.attempts++
	t.gen++
	t.alloc = alloc
	t.exclusive = exclusive
	rt := m.newRunningTask()
	rt.task, rt.worker = t, w
	rt.aborted = false
	w.running.put(rt)
	m.runIDs.set(int(t.id))
	m.armFastAbort(rt)

	// Input staging: shared files are fetched once per worker and
	// shared by all its tasks; the private input belongs to the task.
	rt.pending = 1 // barrier released after all fetches are set up
	if t.hasShared {
		for _, f := range m.coldOf(t).shared {
			fid := m.fids.Intern(f.Name)
			if w.hasFile(fid) {
				continue
			}
			rt.pending++
			if rt.fetchFn == nil {
				// Bound lazily, like inFn/outFn: only staging-heavy
				// workloads pay for it, once per record.
				rt.fetchFn = func() { m.fetchDone(rt) }
			}
			m.ensureFile(w, fid, f.SizeMB, rt.fetchFn)
		}
	}
	m.flushFreeFetches()
	if t.inputMB > 0 && m.link != nil {
		rt.pending++
		if rt.inFn == nil {
			// Bound lazily: workloads without per-task transfers never
			// pay for the closure; transfer-heavy ones pay once per
			// record, then recycle it with the record.
			rt.inFn = func() {
				rt.inTr = nil
				m.fetchDone(rt)
			}
		}
		rt.inTr = m.link.Start(t.inputMB, rt.inFn)
	}
	m.fetchDone(rt) // release the setup barrier
}

// flushFreeFetches schedules a task's accumulated free-transfer
// arrivals as zero-delay events in accumulation order. They are
// scheduled after the staging loop, not as each accumulates, so the
// loop's own events (link timers) keep the earlier seqs.
func (m *Master) flushFreeFetches() {
	for i, fn := range m.freeFetch {
		m.eng.After(0, "wq-fetch-free", fn)
		m.freeFetch[i] = nil
	}
	m.freeFetch = m.freeFetch[:0]
}

// ensureFile fetches a shared file (by interned fid) onto the worker
// exactly once; callbacks queue while a fetch is in flight.
func (m *Master) ensureFile(w *simWorker, fid int32, sizeMB float64, cb func()) {
	if w.hasFile(fid) {
		cb()
		return
	}
	if _, inflight := w.fetching[fid]; inflight {
		w.fetching[fid] = append(w.fetching[fid], cb)
		return
	}
	if w.fetching == nil {
		w.fetching = make(map[int32][]func())
	}
	w.fetching[fid] = []func(){cb}
	if m.link == nil || sizeMB <= 0 {
		// Free transfers arrive instantly; the arrivals for one task's
		// staging accumulate until flushFreeFetches schedules them.
		m.freeFetch = append(m.freeFetch, func() { m.fileArrived(w, fid) })
		return
	}
	if w.fetches == nil {
		w.fetches = make(map[int32]*netsim.Transfer)
	}
	w.fetches[fid] = m.link.Start(sizeMB, func() {
		delete(w.fetches, fid)
		m.fileArrived(w, fid)
	})
}

func (m *Master) fileArrived(w *simWorker, fid int32) {
	if !m.connected(w) {
		return
	}
	w.setFile(fid)
	cbs := w.fetching[fid]
	delete(w.fetching, fid)
	for _, cb := range cbs {
		cb()
	}
}

func (m *Master) fetchDone(rt *runningTask) {
	if rt.aborted {
		// The attempt was stopped (kill, fast-abort, cancel) while a
		// shared-file fetch it was waiting on stayed in flight; the
		// late callback must not start execution.
		return
	}
	rt.pending--
	if rt.pending > 0 {
		return
	}
	// All inputs are on the worker: execute.
	t := rt.task
	rt.executing = true
	rt.execStart = m.eng.Elapsed()
	rt.execUsage = t.used.Min(t.alloc)
	m.busyUsage = m.busyUsage.Add(rt.execUsage)
	rt.execTmr = m.eng.After(t.exec, "wq-exec", rt.execDone)
}

func (m *Master) sendOutput(rt *runningTask) {
	t := rt.task
	if t.outputMB > 0 && m.link != nil {
		if rt.outFn == nil {
			rt.outFn = func() {
				rt.outTr = nil
				m.completeTask(rt)
			}
		}
		rt.outTr = m.link.Start(t.outputMB, rt.outFn)
		return
	}
	m.completeTask(rt)
}

func (m *Master) completeTask(rt *runningTask) {
	t, w := rt.task, rt.worker
	id := int(t.id)
	rt.abortTmr.Stop()
	w.running.remove(id)
	m.runIDs.clear(id)
	w.pool.Release(t.alloc)
	m.syncAvail(w)
	m.runningCount--
	m.totalUsed = m.totalUsed.Sub(t.alloc)
	if w.running.len() == 0 && !w.draining {
		m.idleCount++
		m.markIdle(w)
	}
	m.recycleRunningTask(rt)
	t.state = TaskComplete
	t.wid = -1
	t.finished = m.now()
	m.completeCount++
	if c := m.coldOf(t); c != nil && c.tag != "" {
		m.doneLog.add(id, c.tag)
	}
	m.rev++
	epoch := m.epoch
	if len(m.onComplete) > 0 {
		// Built only when someone listens: the public Task, with its
		// measured usage and wall time, is pure work in headless
		// storms.
		m.doneWorker = w.id
		res := Result{Task: m.view(t)}
		for _, fn := range m.onComplete {
			fn(res)
		}
		m.doneWorker = ""
	}
	if !m.down && m.epoch == epoch {
		// A subscriber that crashed (and maybe restored) the master has
		// already dropped this record with the old byID.
		m.retire(t)
	}
	if w.draining && w.running.len() == 0 {
		m.finishDrain(w)
		return
	}
	m.scheduleDispatch()
}

// retire releases a completed record whose Result every subscriber
// has seen. The tombstone is the zeroed ID, written to the line
// completeTask has just read; byID keeps its pointer, because clearing
// the slot would touch a million-entry index at random on every
// completion, and the free list finds the record through it. The cold
// entry, if any, is emptied at once. The record goes on the free
// list for a later Submit unless the list is full; a record left off
// it stays reachable through byID but is never read again.
func (m *Master) retire(t *taskRec) {
	id := int(t.id)
	t.id = 0
	m.dropCold(t)
	if m.freeN == retiredCap {
		return
	}
	m.freeN++
	m.freeIDs.set(id)
}

// --- introspection ---

// Stats is a snapshot of the master's queue and worker pool.
type Stats struct {
	// Waiting counts queued tasks, failed tasks sitting out a retry
	// backoff, and buffered submissions (all still owed execution).
	Waiting     int
	Running     int
	Complete    int
	Quarantined int
	// Buffered counts submissions parked in the admission buffer;
	// Shed counts submissions rejected at the admission hard cap.
	Buffered int
	Shed     int

	Workers         int
	IdleWorkers     int
	DrainingWorkers int

	// Capacity is the summed capacity of connected workers; InUse is
	// the summed allocations of running tasks.
	Capacity resources.Vector
	InUse    resources.Vector
}

// Stats returns the current snapshot in O(1) from the master's
// incremental aggregates.
func (m *Master) Stats() Stats {
	return Stats{
		Waiting:         m.waiting.Len() + len(m.retryPending) + len(m.rescuable) + len(m.admQueue),
		Running:         m.runningCount,
		Complete:        m.completeCount,
		Quarantined:     m.fstats.Quarantined,
		Buffered:        len(m.admQueue),
		Shed:            m.ostats.Shed,
		Workers:         m.workerCount,
		IdleWorkers:     m.idleCount,
		DrainingWorkers: m.drainingCount,
		Capacity:        m.totalCap,
		InUse:           m.totalUsed,
	}
}

// ForEachWaiting visits every waiting task in dispatch order
// (priority descending, submission order within a priority) without
// allocating — the order the master places them in, and the order
// Algorithm 1 must plan them in. The callback must treat the task as
// read-only and must not call back into the master. The pointer is
// valid only during the call: every visit overwrites the same Task,
// so a callback that keeps a task must copy it.
func (m *Master) ForEachWaiting(fn func(t *Task)) {
	m.waiting.ForEach(func(id int) { fn(m.visit(m.byID[id])) })
}

// ForEachRunning visits every dispatched task in ascending ID order
// without allocating or sorting: it walks the running-id bitset the
// dispatch and completion paths maintain. The callback must treat the
// task as read-only and must not call back into the master. The
// pointer is valid only during the call: every visit overwrites the
// same Task, so a callback that keeps a task must copy it.
func (m *Master) ForEachRunning(fn func(t *Task)) {
	words := m.runIDs.words
	for i := m.runIDs.low(); i < len(words); i++ {
		for b := words[i]; b != 0; b &= b - 1 {
			fn(m.visit(m.byID[i<<6|bits.TrailingZeros64(b)]))
		}
	}
}

// WaitingTasks returns copies of the queued tasks in global FIFO
// (submission) order, which differs from ForEachWaiting's dispatch
// order only when tasks carry different priorities.
func (m *Master) WaitingTasks() []Task {
	ids := m.waiting.QueueOrder()
	out := make([]Task, 0, len(ids))
	for _, id := range ids {
		out = append(out, m.view(m.byID[id]))
	}
	return out
}

// RunningTasks returns copies of all dispatched tasks, ordered by ID.
func (m *Master) RunningTasks() []Task {
	out := make([]Task, 0, m.runningCount)
	m.ForEachRunning(func(t *Task) { out = append(out, *t) })
	return out
}

// Rev returns the master's mutation revision: it changes whenever the
// queue, the worker roster, the policy or the estimator changes in a
// way that could alter a dispatch or planning pass. External planners
// (the multi-tenant arbiter) compare revisions across cycles to skip
// re-planning masters whose state is provably unchanged. Draining a
// worker does not bump the revision — the initiator of a drain must
// account for it separately.
func (m *Master) Rev() uint64 { return m.rev }

// ForEachWorker visits connected workers in join order with their
// capacity and draining flag, without allocating. The callback must
// not call back into the master.
func (m *Master) ForEachWorker(fn func(id string, capacity resources.Vector, draining bool)) {
	for _, w := range m.roster {
		if w == nil {
			continue
		}
		fn(w.id, w.pool.Capacity(), w.draining)
	}
}

// CompletedCount returns the number of completed tasks.
func (m *Master) CompletedCount() int { return m.completeCount }

// WorkerDetail describes one connected worker.
type WorkerDetail struct {
	ID          string
	Capacity    resources.Vector
	InUse       resources.Vector
	Running     int
	CachedFiles int
	Draining    bool
	JoinedAt    time.Time
}

// WorkerDetails returns per-worker state in join order — the data a
// `work_queue_status`-style CLI prints.
func (m *Master) WorkerDetails() []WorkerDetail {
	out := make([]WorkerDetail, 0, m.workerCount)
	for _, w := range m.roster {
		if w == nil {
			continue
		}
		out = append(out, WorkerDetail{
			ID:          w.id,
			Capacity:    w.pool.Capacity(),
			InUse:       w.pool.Used(),
			Running:     w.running.len(),
			CachedFiles: w.cached,
			Draining:    w.draining,
			JoinedAt:    w.joinedAt,
		})
	}
	return out
}
