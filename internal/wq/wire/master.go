package wire

import (
	"cmp"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"hta/internal/resources"
)

// TaskStatus is a task's lifecycle state at the TCP master.
type TaskStatus int

// Task states.
const (
	StatusWaiting TaskStatus = iota
	StatusRunning
	StatusDone
)

// Task is the master-side record of a submitted command.
type Task struct {
	ID        int
	Command   string
	Category  string
	Priority  int
	Resources resources.Vector // zero = unknown

	Status   TaskStatus
	WorkerID string
	Attempts int
	// StartedAt is the last dispatch time (zero while waiting).
	StartedAt time.Time
	// Allocated is the resource amount held on the worker during the
	// current/last run.
	Allocated resources.Vector

	ExitCode int
	Output   string
	Err      string
	Wall     time.Duration
	// MeasuredCPUMilli is the worker-reported average CPU use.
	MeasuredCPUMilli int64
}

// Result is delivered to completion subscribers.
type Result struct{ Task Task }

// Stats is a snapshot of the master's state.
type Stats struct {
	Waiting, Running, Done int
	Workers                int
}

type workerConn struct {
	id       string
	capacity resources.Vector
	pool     *resources.Pool
	conn     *conn
	running  map[int]resources.Vector // task -> allocation
	draining bool
	lastSeen time.Time
}

// MasterConfig tunes the TCP master.
type MasterConfig struct {
	// HeartbeatTimeout disconnects a worker whose last frame
	// (heartbeat or result) is older than this; its tasks requeue.
	// 0 disables liveness checking.
	HeartbeatTimeout time.Duration
	// ReattachGrace parks a disconnected worker's running tasks for
	// this long before requeueing them: if the worker reconnects
	// within the grace window still reporting the attempts in flight,
	// they are rescued (resume as the same attempt) instead of being
	// rescheduled. 0 requeues immediately (the pre-recovery
	// behaviour).
	ReattachGrace time.Duration
	// RegisterTimeout bounds how long an accepted connection may take
	// to deliver its register frame. A half-written or silent peer is
	// invisible to the heartbeat reaper (it is not a worker yet), so
	// without this bound it pins a serve goroutine forever. 0 takes
	// the 10 s default; negative disables.
	RegisterTimeout time.Duration
	// ReadTimeout bounds each post-registration frame read. 0
	// disables — the heartbeat reaper handles registered-worker
	// liveness. Set it only below the workers' heartbeat interval at
	// your peril.
	ReadTimeout time.Duration
}

// registerTimeout resolves the config's registration deadline.
func (c MasterConfig) registerTimeout() time.Duration {
	if c.RegisterTimeout < 0 {
		return 0
	}
	if c.RegisterTimeout == 0 {
		return 10 * time.Second
	}
	return c.RegisterTimeout
}

// parkedWorker holds a disconnected worker's in-flight allocations
// while the reattach grace window runs.
type parkedWorker struct {
	tasks map[int]resources.Vector
	timer *time.Timer
}

// Master is a TCP Work Queue master.
type Master struct {
	ln  net.Listener
	cfg MasterConfig

	mu         sync.Mutex
	nextID     int
	tasks      map[int]*Task
	waiting    []int
	workers    map[string]*workerConn
	order      []string
	parked     map[string]*parkedWorker
	onComplete []func(Result)
	closed     bool
	done       chan struct{}
	wg         sync.WaitGroup
}

// Listen starts a master on addr (e.g. "127.0.0.1:9123"; use port 0
// for an ephemeral port).
func Listen(addr string) (*Master, error) { return ListenConfig(addr, MasterConfig{}) }

// ListenConfig starts a master with explicit configuration.
func ListenConfig(addr string, cfg MasterConfig) (*Master, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	m := &Master{
		ln:      ln,
		cfg:     cfg,
		tasks:   make(map[int]*Task),
		workers: make(map[string]*workerConn),
		parked:  make(map[string]*parkedWorker),
		done:    make(chan struct{}),
	}
	m.wg.Add(1)
	go m.acceptLoop()
	if cfg.HeartbeatTimeout > 0 {
		m.wg.Add(1)
		go m.reaperLoop()
	}
	return m, nil
}

// reaperLoop disconnects workers that stopped sending frames.
func (m *Master) reaperLoop() {
	defer m.wg.Done()
	interval := m.cfg.HeartbeatTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-m.cfg.HeartbeatTimeout)
		m.mu.Lock()
		var dead []*workerConn
		for _, w := range m.workers {
			if w.lastSeen.Before(cutoff) {
				dead = append(dead, w)
			}
		}
		m.mu.Unlock()
		for _, w := range dead {
			// Closing the connection makes the reader goroutine run
			// the normal disconnect path (requeue + removal).
			_ = w.conn.close()
		}
	}
}

// Addr returns the listening address.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Close shuts the master down: the listener stops and all worker
// connections are closed.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.done)
	conns := make([]*workerConn, 0, len(m.workers))
	for _, w := range m.workers {
		conns = append(conns, w)
	}
	for _, p := range m.parked {
		p.timer.Stop()
	}
	m.parked = make(map[string]*parkedWorker)
	m.mu.Unlock()
	err := m.ln.Close()
	for _, w := range conns {
		_ = w.conn.close()
	}
	m.wg.Wait()
	return err
}

// OnComplete subscribes to task completions. Callbacks run on
// connection-reader goroutines; they must be quick and thread-safe.
func (m *Master) OnComplete(fn func(Result)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onComplete = append(m.onComplete, fn)
}

// Submit enqueues a shell command and returns its task ID.
func (m *Master) Submit(command, category string, req resources.Vector) int {
	return m.SubmitPriority(command, category, req, 0)
}

// SubmitPriority enqueues a command with a dispatch priority
// (higher first; ties keep submission order).
func (m *Master) SubmitPriority(command, category string, req resources.Vector, priority int) int {
	m.mu.Lock()
	m.nextID++
	t := &Task{ID: m.nextID, Command: command, Category: category, Resources: req, Priority: priority}
	m.tasks[t.ID] = t
	m.waiting = append(m.waiting, t.ID)
	m.mu.Unlock()
	m.dispatch()
	return t.ID
}

// Task returns a copy of the task.
func (m *Master) Task(id int) (Task, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tasks[id]
	if !ok {
		return Task{}, false
	}
	return *t, true
}

// Stats returns a snapshot.
func (m *Master) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{Waiting: len(m.waiting), Workers: len(m.workers)}
	for _, t := range m.tasks {
		switch t.Status {
		case StatusRunning:
			s.Running++
		case StatusDone:
			s.Done++
		}
	}
	return s
}

// Workers returns connected worker IDs in join order.
func (m *Master) Workers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// WorkerDetail describes one connected worker.
type WorkerDetail struct {
	ID       string
	Capacity resources.Vector
	Running  int
	Draining bool
}

// WorkerDetails returns per-worker state in join order.
func (m *Master) WorkerDetails() []WorkerDetail {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerDetail, 0, len(m.order))
	for _, id := range m.order {
		w := m.workers[id]
		out = append(out, WorkerDetail{
			ID:       id,
			Capacity: w.capacity,
			Running:  len(w.running),
			Draining: w.draining,
		})
	}
	return out
}

// WaitingTasks returns copies of the queued tasks in queue order.
func (m *Master) WaitingTasks() []Task {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Task, 0, len(m.waiting))
	for _, id := range m.waiting {
		out = append(out, *m.tasks[id])
	}
	return out
}

// RunningTasks returns copies of all dispatched tasks, ordered by ID.
func (m *Master) RunningTasks() []Task {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Task
	for _, t := range m.tasks {
		if t.Status == StatusRunning {
			out = append(out, *t)
		}
	}
	slices.SortFunc(out, func(a, b Task) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Drain asks a worker to finish its running tasks and exit; no new
// tasks are dispatched to it.
func (m *Master) Drain(workerID string) error {
	m.mu.Lock()
	w, ok := m.workers[workerID]
	if ok {
		w.draining = true
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("wire: worker %q not connected", workerID)
	}
	return w.conn.write(Frame{Type: TypeDrain})
}

func (m *Master) acceptLoop() {
	defer m.wg.Done()
	for {
		raw, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.wg.Add(1)
		go m.serve(newConn(raw))
	}
}

func (m *Master) serve(c *conn) {
	defer m.wg.Done()
	c.setReadTimeout(m.cfg.registerTimeout())
	reg, err := c.read()
	if err != nil || reg.Type != TypeRegister || reg.WorkerID == "" {
		_ = c.close()
		return
	}
	c.setReadTimeout(m.cfg.ReadTimeout)
	capacity := resources.Vector{MilliCPU: reg.Cores, MemoryMB: reg.MemoryMB, DiskMB: reg.DiskMB}
	if !capacity.AnyPositive() || !capacity.IsNonNegative() {
		_ = c.close()
		return
	}
	w := &workerConn{
		id:       reg.WorkerID,
		capacity: capacity,
		pool:     resources.NewPool(capacity),
		conn:     c,
		running:  make(map[int]resources.Vector),
		lastSeen: time.Now(),
	}
	m.mu.Lock()
	if _, dup := m.workers[w.id]; dup || m.closed {
		m.mu.Unlock()
		_ = c.close()
		return
	}
	// Reconnect: rescue the attempts this worker still has in flight
	// and the master still has parked for it. Everything else the
	// worker reports is superseded and fenced off via drop_ids.
	reported := make(map[int]bool, len(reg.InflightIDs))
	for _, id := range reg.InflightIDs {
		reported[id] = true
	}
	if p, ok := m.parked[w.id]; ok {
		delete(m.parked, w.id)
		p.timer.Stop()
		var requeued []int
		ids := make([]int, 0, len(p.tasks))
		for id := range p.tasks {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			t := m.tasks[id]
			if reported[id] && t != nil && t.Status == StatusRunning && t.WorkerID == w.id {
				_ = w.pool.Acquire(p.tasks[id])
				w.running[id] = p.tasks[id]
				continue
			}
			if t != nil && t.Status == StatusRunning && t.WorkerID == w.id {
				t.Status = StatusWaiting
				t.WorkerID = ""
				t.Allocated = resources.Zero
				requeued = append(requeued, id)
			}
		}
		m.waiting = append(requeued, m.waiting...)
	}
	var drop []int
	for _, id := range reg.InflightIDs {
		if _, rescued := w.running[id]; !rescued {
			drop = append(drop, id)
		}
	}
	slices.Sort(drop)
	m.workers[w.id] = w
	m.order = append(m.order, w.id)
	m.mu.Unlock()
	if err := c.write(Frame{Type: TypeRegisterAck, WorkerID: w.id, DropIDs: drop}); err != nil {
		m.disconnect(w)
		return
	}
	m.dispatch()

	for {
		f, err := c.read()
		if err != nil {
			break
		}
		m.mu.Lock()
		w.lastSeen = time.Now()
		m.mu.Unlock()
		if f.Type == TypeResult {
			m.handleResult(w, f)
		}
	}
	m.disconnect(w)
}

func (m *Master) handleResult(w *workerConn, f Frame) {
	m.mu.Lock()
	t, ok := m.tasks[f.TaskID]
	if !ok || t.Status != StatusRunning || t.WorkerID != w.id {
		m.mu.Unlock()
		return
	}
	alloc := w.running[t.ID]
	delete(w.running, t.ID)
	w.pool.Release(alloc)
	t.Status = StatusDone
	t.ExitCode = f.ExitCode
	t.Output = f.Output
	t.Err = f.Error
	t.Wall = time.Duration(f.WallMS) * time.Millisecond
	t.MeasuredCPUMilli = f.CPUMilli
	cbs := make([]func(Result), len(m.onComplete))
	copy(cbs, m.onComplete)
	cp := *t
	m.mu.Unlock()
	for _, fn := range cbs {
		fn(Result{Task: cp})
	}
	m.dispatch()
}

// disconnect removes a worker whose connection ended. With a reattach
// grace configured, its running tasks are parked first — still
// assigned, awaiting the worker's reconnect — and only requeued when
// the grace window expires; otherwise they requeue immediately.
func (m *Master) disconnect(w *workerConn) {
	_ = w.conn.close()
	m.mu.Lock()
	if m.workers[w.id] != w {
		m.mu.Unlock()
		return
	}
	delete(m.workers, w.id)
	for i, id := range m.order {
		if id == w.id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	if m.cfg.ReattachGrace > 0 && len(w.running) > 0 && !w.draining && !m.closed {
		id := w.id
		p := &parkedWorker{tasks: make(map[int]resources.Vector, len(w.running))}
		for tid, alloc := range w.running {
			p.tasks[tid] = alloc
		}
		p.timer = time.AfterFunc(m.cfg.ReattachGrace, func() { m.expireParked(id, p) })
		m.parked[id] = p
		m.mu.Unlock()
		return
	}
	var requeued []int
	for id := range w.running {
		t := m.tasks[id]
		t.Status = StatusWaiting
		t.WorkerID = ""
		t.Allocated = resources.Zero
		requeued = append(requeued, id)
	}
	slices.Sort(requeued)
	m.waiting = append(requeued, m.waiting...)
	m.mu.Unlock()
	m.dispatch()
}

// expireParked requeues a parked worker's tasks after the reattach
// grace window passed without a reconnect.
func (m *Master) expireParked(workerID string, p *parkedWorker) {
	m.mu.Lock()
	if m.parked[workerID] != p {
		m.mu.Unlock()
		return // the worker reconnected (or Close cleared the park)
	}
	delete(m.parked, workerID)
	var requeued []int
	for id := range p.tasks {
		t := m.tasks[id]
		if t == nil || t.Status != StatusRunning || t.WorkerID != workerID {
			continue
		}
		t.Status = StatusWaiting
		t.WorkerID = ""
		t.Allocated = resources.Zero
		requeued = append(requeued, id)
	}
	slices.Sort(requeued)
	m.waiting = append(requeued, m.waiting...)
	m.mu.Unlock()
	m.dispatch()
}

// dispatch assigns waiting tasks to workers: known requirements
// first-fit, unknown requirements exclusively on an idle worker.
func (m *Master) dispatch() {
	type send struct {
		w *workerConn
		f Frame
	}
	var sends []send
	m.mu.Lock()
	order := append([]int(nil), m.waiting...)
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(m.tasks[b].Priority, m.tasks[a].Priority)
	})
	placed := make(map[int]bool)
	for _, id := range order {
		t := m.tasks[id]
		var target *workerConn
		var alloc resources.Vector
		if !t.Resources.IsZero() {
			for _, wid := range m.order {
				w := m.workers[wid]
				if !w.draining && w.pool.CanFit(t.Resources) {
					target, alloc = w, t.Resources
					break
				}
			}
		} else {
			for _, wid := range m.order {
				w := m.workers[wid]
				if !w.draining && w.pool.Used().IsZero() && len(w.running) == 0 {
					target, alloc = w, w.pool.Capacity()
					break
				}
			}
		}
		if target == nil {
			continue
		}
		placed[id] = true
		_ = target.pool.Acquire(alloc)
		target.running[t.ID] = alloc
		t.Status = StatusRunning
		t.WorkerID = target.id
		t.Attempts++
		t.StartedAt = time.Now()
		t.Allocated = alloc
		sends = append(sends, send{target, Frame{
			Type:        TypeTask,
			TaskID:      t.ID,
			Command:     t.Command,
			Category:    t.Category,
			Priority:    t.Priority,
			ReqCores:    t.Resources.MilliCPU,
			ReqMemoryMB: t.Resources.MemoryMB,
		}})
	}
	still := m.waiting[:0]
	for _, id := range m.waiting {
		if !placed[id] {
			still = append(still, id)
		}
	}
	m.waiting = still
	m.mu.Unlock()
	for _, s := range sends {
		if err := s.w.conn.write(s.f); err != nil {
			// Reader goroutine will notice the broken connection and
			// requeue via disconnect.
			continue
		}
	}
}
