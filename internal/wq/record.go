package wq

import (
	"math"
	"time"

	"hta/internal/resources"
)

// noTime is the stamp of an unset time (the zero time.Time). A task
// submitted at the engine's first instant is stamped 0, so zero cannot
// mean unset.
const noTime = math.MinInt64

// taskRec is the master's record of a task. It holds no pointer, so
// the slab chunks that store a million of them are allocated noscan
// and the garbage collector never marks them. What a record cannot
// hold without a pointer lives elsewhere: the category is interned in
// Master.cats, the hosting worker is a wid into Master.workersBy, and
// the strings and the shared-input list sit in the cold table (see
// coldRec), reached through cold. The public Task is built from the
// record at the API boundary (see Master.fill).
type taskRec struct {
	id       int32 // task ID; zeroed when the completed record retires
	ref      int32
	cat      int32 // interned category (Master.cats)
	wid      int32 // hosting worker's index in Master.workersBy while running, else -1
	attempts int32
	gen      int32
	// cold is the record's cold-table index, fixed when the record is
	// first taken from the slab; hasCold reports that the entry holds
	// this task's cold fields, and hasShared that they include shared
	// inputs, so dispatch reads the entry only for tasks that stage.
	cold int32

	state     TaskState
	exclusive bool
	hasCold   bool
	hasShared bool

	priority int64
	res      resources.Vector // declared requirement
	alloc    resources.Vector // held on the worker during the last run
	exec     time.Duration    // Profile.ExecDuration
	used     resources.Vector // Profile.Usage()
	inputMB  float64
	outputMB float64

	// Times are nanosecond offsets from the engine base, noTime when
	// unset.
	submitted, started, finished int64
}

// coldRec holds the pointer-bearing rest of a task record: fields the
// dispatch path never reads, or reads only for tasks that have them.
type coldRec struct {
	tag     string
	command string
	shared  []File
	worker  string // the last worker, saved when the task leaves it
}

// coldChunk is the cold table's chunk length.
const coldChunk = 1024

// coldTable parallels the record slab: the i-th record taken from the
// slab owns entry i, so an entry is freed and reused together with its
// record, and a walk over records in ID order reads their entries in
// order too. A chunk is allocated when a record in its range first
// needs an entry; a run whose tasks have no tag, command or shared
// input and never leave a worker allocates none.
type coldTable struct {
	chunks [][]coldRec
}

// at returns entry i, allocating its chunk on first use.
func (c *coldTable) at(i int32) *coldRec {
	k := int(i / coldChunk)
	for k >= len(c.chunks) {
		c.chunks = append(c.chunks, nil)
	}
	if c.chunks[k] == nil {
		c.chunks[k] = make([]coldRec, coldChunk)
	}
	return &c.chunks[k][i%coldChunk]
}

// coldOf returns the record's cold entry, or nil when it has none.
func (m *Master) coldOf(r *taskRec) *coldRec {
	if !r.hasCold {
		return nil
	}
	i := uint32(r.cold)
	return &m.cold.chunks[i/coldChunk][i%coldChunk]
}

// coldFor returns the record's cold entry, taking it if the record
// has none.
func (m *Master) coldFor(r *taskRec) *coldRec {
	r.hasCold = true
	return m.cold.at(r.cold)
}

// dropCold empties the record's cold entry, releasing its strings.
func (m *Master) dropCold(r *taskRec) {
	if r.hasCold {
		*m.coldOf(r) = coldRec{}
		r.hasCold, r.hasShared = false, false
	}
}

// timeBase converts between times and record stamps: nanoseconds from
// the engine's base instant.
type timeBase struct{ base time.Time }

// stamp converts a time to a record stamp.
func (b timeBase) stamp(t time.Time) int64 {
	if t.IsZero() {
		return noTime
	}
	return int64(t.Sub(b.base))
}

// time converts a record stamp back to the time it was taken from.
func (b timeBase) time(s int64) time.Time {
	if s == noTime {
		return time.Time{}
	}
	return b.base.Add(time.Duration(s))
}

// now is the current instant as a record stamp.
func (m *Master) now() int64 { return int64(m.eng.Elapsed()) }

// workerName is the worker the task runs on, or last ran on.
func (m *Master) workerName(r *taskRec) string {
	switch {
	case r.wid >= 0:
		return m.workersBy[r.wid].id
	case r.state == TaskComplete:
		// Only reachable from an OnComplete subscriber.
		return m.doneWorker
	case r.hasCold:
		return m.coldOf(r).worker
	}
	return ""
}

// leaveWorker records that a running task left its worker other than
// by completing: the worker's name moves to the cold side, since the
// wid may go to another worker.
func (m *Master) leaveWorker(r *taskRec) {
	m.coldFor(r).worker = m.workersBy[r.wid].id
	r.wid = -1
}

// category returns the task's category name.
func (m *Master) category(r *taskRec) string { return m.cats.Str(r.cat) }

// tag returns the task's tag.
func (m *Master) tag(r *taskRec) string {
	if c := m.coldOf(r); c != nil {
		return c.tag
	}
	return ""
}

// fill builds the public view of a record into t, overwriting every
// field. It stores field by field: a composite literal would build the
// whole Task on the stack and copy it over.
func (m *Master) fill(t *Task, r *taskRec) {
	t.ID = int(r.id)
	t.Ref = r.ref
	t.Category = m.category(r)
	t.Priority = int(r.priority)
	t.Resources = r.res
	t.InputMB, t.OutputMB = r.inputMB, r.outputMB
	t.Profile.ExecDuration = r.exec
	t.Profile.UsedCPUMilli = r.used.MilliCPU
	t.Profile.UsedMemoryMB = r.used.MemoryMB
	t.Profile.UsedDiskMB = r.used.DiskMB
	t.Attempts, t.Gen = int(r.attempts), int(r.gen)
	t.Allocated, t.Exclusive, t.State = r.alloc, r.exclusive, r.state
	if r.state == TaskComplete {
		t.Measured = r.used
		t.ExecWall = time.Duration(r.finished - r.started)
	} else {
		t.Measured, t.ExecWall = resources.Vector{}, 0
	}
	if c := m.coldOf(r); c != nil {
		t.Tag, t.Command, t.SharedInputs = c.tag, c.command, c.shared
	} else {
		t.Tag, t.Command, t.SharedInputs = "", "", nil
	}
	t.WorkerID = m.workerName(r)
	t.SubmittedAt = m.base.time(r.submitted)
	t.StartedAt = m.base.time(r.started)
	t.FinishedAt = m.base.time(r.finished)
}

// view returns the public view of a record.
func (m *Master) view(r *taskRec) Task {
	var t Task
	m.fill(&t, r)
	return t
}

// visit fills the visitors' scratch Task from a record.
func (m *Master) visit(r *taskRec) *Task {
	m.fill(&m.scratch, r)
	return &m.scratch
}

// load overwrites a fresh record with a public task (Restore's
// import) and registers it under the task's ID. A task that names a
// worker keeps the name on the cold side: no worker is connected at
// restore time.
func (m *Master) load(r *taskRec, t *Task) {
	*r = taskRec{
		cold:      r.cold,
		id:        int32(t.ID),
		ref:       t.Ref,
		cat:       m.cats.Intern(t.Category),
		wid:       -1,
		attempts:  int32(t.Attempts),
		gen:       int32(t.Gen),
		state:     t.State,
		exclusive: t.Exclusive,
		priority:  int64(t.Priority),
		res:       t.Resources,
		alloc:     t.Allocated,
		exec:      t.Profile.ExecDuration,
		used:      t.Profile.Usage(),
		inputMB:   t.InputMB,
		outputMB:  t.OutputMB,
		submitted: m.base.stamp(t.SubmittedAt),
		started:   m.base.stamp(t.StartedAt),
		finished:  m.base.stamp(t.FinishedAt),
	}
	m.setCold(r, t.Tag, t.Command, t.SharedInputs)
	if t.WorkerID != "" {
		m.coldFor(r).worker = t.WorkerID
	}
	m.setTask(r)
}

// setCold stores a task's spec strings and shared inputs, taking a
// cold entry only when one of them is set.
func (m *Master) setCold(r *taskRec, tag, command string, shared []File) {
	if tag == "" && command == "" && len(shared) == 0 {
		return
	}
	c := m.coldFor(r)
	c.tag, c.command = tag, command
	if len(shared) > 0 {
		c.shared = shared
		r.hasShared = true
	}
}
