package wire

import (
	"context"
	"fmt"
	"net"
	"os/exec"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hta/internal/resources"
)

// WorkerConfig configures a TCP worker.
type WorkerConfig struct {
	// ID is the worker's identity (required, unique per master).
	ID string
	// Capacity is the advertised resource capacity (required).
	Capacity resources.Vector
	// Shell is the interpreter for task commands (default /bin/sh).
	Shell string
	// TaskTimeout kills commands that run longer (0 = no limit).
	TaskTimeout time.Duration
	// HeartbeatInterval is the liveness-frame period (default 10 s;
	// negative disables heartbeats).
	HeartbeatInterval time.Duration
	// HandshakeTimeout bounds the wait for the master's register_ack
	// (default 5 s). A dial that succeeds but never acks counts as a
	// failed connection attempt.
	HandshakeTimeout time.Duration
}

// Worker executes task commands received from a wire.Master. A Worker
// outlives its TCP connection: when the connection drops, running
// commands keep executing and their results are buffered; a
// subsequent Connect re-registers with the still-running task IDs so
// the master can rescue the attempts instead of rescheduling them.
type Worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	conn     *conn         // current connection; nil while disconnected
	connDone chan struct{} // closed when the current connection's loop exits
	running  map[int]context.CancelFunc
	pending  []Frame // results not yet delivered to any master
	draining bool
	finished bool // clean drain: terminal
	err      error
	wg       sync.WaitGroup
}

// NewWorker validates the configuration and returns a disconnected
// worker; call Connect to register with a master.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("wire: worker needs an ID")
	}
	if !cfg.Capacity.AnyPositive() {
		return nil, fmt.Errorf("wire: worker %q needs a capacity", cfg.ID)
	}
	if cfg.Shell == "" {
		cfg.Shell = "/bin/sh"
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 10 * time.Second
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	return &Worker{
		cfg:     cfg,
		running: make(map[int]context.CancelFunc),
	}, nil
}

// Connect dials the master and registers. The worker starts serving
// immediately; Wait blocks until it exits (drain or disconnect).
func Connect(addr string, cfg WorkerConfig) (*Worker, error) {
	w, err := NewWorker(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Connect(addr); err != nil {
		return nil, err
	}
	return w, nil
}

// Connect establishes a (new) connection to the master: dial,
// register — reporting any tasks still executing from a previous
// connection — and wait for the master's ack. Attempts the ack names
// in drop_ids are canceled; buffered results are flushed. Connect
// returns an error if the worker already drained cleanly, if it still
// has a live connection, or if the handshake fails.
func (w *Worker) Connect(addr string) error {
	w.mu.Lock()
	if w.finished {
		w.mu.Unlock()
		return fmt.Errorf("wire: worker %q already drained", w.cfg.ID)
	}
	if w.conn != nil {
		w.mu.Unlock()
		return fmt.Errorf("wire: worker %q already connected", w.cfg.ID)
	}
	inflight := make([]int, 0, len(w.running))
	for id := range w.running {
		inflight = append(inflight, id)
	}
	w.mu.Unlock()
	slices.Sort(inflight)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: dial master: %w", err)
	}
	c := newConn(raw)
	if err := c.write(Frame{
		Type:        TypeRegister,
		WorkerID:    w.cfg.ID,
		Cores:       w.cfg.Capacity.MilliCPU,
		MemoryMB:    w.cfg.Capacity.MemoryMB,
		DiskMB:      w.cfg.Capacity.DiskMB,
		InflightIDs: inflight,
	}); err != nil {
		_ = c.close()
		return err
	}
	// The connection is not healthy until the master admits us: wait
	// for the ack under a deadline so a half-open master can't hang
	// the reconnect loop.
	_ = raw.SetReadDeadline(time.Now().Add(w.cfg.HandshakeTimeout))
	ack, err := c.read()
	if err != nil {
		_ = c.close()
		return fmt.Errorf("wire: handshake: %w", err)
	}
	if ack.Type != TypeRegisterAck {
		_ = c.close()
		return fmt.Errorf("wire: handshake: unexpected %q frame", ack.Type)
	}
	_ = raw.SetReadDeadline(time.Time{})

	w.mu.Lock()
	for _, id := range ack.DropIDs {
		if cancel, ok := w.running[id]; ok {
			cancel() // superseded attempt; its late result is dropped below
			delete(w.running, id)
		}
	}
	drop := make(map[int]bool, len(ack.DropIDs))
	for _, id := range ack.DropIDs {
		drop[id] = true
	}
	pending := w.pending
	w.pending = nil
	w.conn = c
	connDone := make(chan struct{})
	w.connDone = connDone
	w.mu.Unlock()

	for _, res := range pending {
		if drop[res.TaskID] {
			continue
		}
		if err := c.write(res); err != nil {
			break
		}
	}
	go w.loop(c, connDone)
	if w.cfg.HeartbeatInterval > 0 {
		go w.heartbeatLoop(c, connDone, w.cfg.HeartbeatInterval)
	}
	return nil
}

func (w *Worker) heartbeatLoop(c *conn, connDone chan struct{}, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-connDone:
			return
		case <-tick.C:
			if err := c.write(Frame{Type: TypeHeartbeat}); err != nil {
				return
			}
		}
	}
}

// Wait blocks until the current connection ends and returns the
// worker's state: nil after a clean drain, the connection error
// otherwise (the caller may then Connect again to resume).
func (w *Worker) Wait() error {
	w.mu.Lock()
	ch := w.connDone
	w.mu.Unlock()
	if ch != nil {
		<-ch
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close disconnects immediately, kills running commands together with
// their child processes, and returns once their goroutines have exited.
// The connection closes first, so a killed attempt's exit status is
// never reported to the master as the task's result.
func (w *Worker) Close() error {
	w.mu.Lock()
	c, connDone := w.conn, w.connDone
	w.mu.Unlock()
	var err error
	if c != nil {
		err = c.close()
		<-connDone // the read loop starts no task after this
	}
	w.mu.Lock()
	for _, cancel := range w.running {
		cancel()
	}
	w.mu.Unlock()
	w.wg.Wait()
	return err
}

func (w *Worker) loop(c *conn, connDone chan struct{}) {
	defer close(connDone)
	for {
		f, err := c.read()
		if err != nil {
			w.mu.Lock()
			if w.conn == c {
				w.conn = nil
			}
			if w.draining && len(w.running) == 0 {
				w.finished = true
				w.err = nil
			} else {
				// Running commands keep executing; their results buffer
				// until the next Connect.
				w.err = err
			}
			w.mu.Unlock()
			_ = c.close()
			return
		}
		switch f.Type {
		case TypeTask:
			w.startTask(f)
		case TypeDrain:
			w.mu.Lock()
			w.draining = true
			idle := len(w.running) == 0
			w.mu.Unlock()
			if idle {
				w.wg.Wait()
				w.mu.Lock()
				if w.conn == c {
					w.conn = nil
				}
				w.finished = true
				w.err = nil
				w.mu.Unlock()
				_ = c.close()
				return
			}
		}
	}
}

func (w *Worker) startTask(f Frame) {
	ctx, cancel := context.WithCancel(context.Background())
	if w.cfg.TaskTimeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), w.cfg.TaskTimeout)
	}
	w.mu.Lock()
	w.running[f.TaskID] = cancel
	w.mu.Unlock()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer cancel()
		res := w.execute(ctx, f)
		w.mu.Lock()
		if _, mine := w.running[f.TaskID]; !mine {
			// Dropped by a reconnect ack while executing: discard.
			w.mu.Unlock()
			return
		}
		delete(w.running, f.TaskID)
		drainingIdle := w.draining && len(w.running) == 0
		c := w.conn
		w.mu.Unlock()
		delivered := c != nil && c.write(res) == nil
		if !delivered {
			w.mu.Lock()
			w.pending = append(w.pending, res)
			w.mu.Unlock()
		}
		if drainingIdle && c != nil {
			_ = c.close()
		}
	}()
}

func (w *Worker) execute(ctx context.Context, f Frame) Frame {
	start := time.Now()
	cmd := exec.CommandContext(ctx, w.cfg.Shell, "-c", f.Command)
	// The shell leads its own process group and cancellation (timeout,
	// drop, Close) kills the whole group: killing only the shell would
	// orphan every process it started.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var killed atomic.Bool
	cmd.Cancel = func() error {
		killed.Store(true)
		return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	// Without a wait delay, a killed shell whose children still hold
	// the output pipe would block CombinedOutput forever.
	cmd.WaitDelay = time.Second
	out, err := cmd.CombinedOutput()
	wall := time.Since(start)
	if killed.Load() {
		awaitGroupGone(cmd.Process.Pid, groupReapTimeout)
	}
	res := Frame{
		Type:   TypeResult,
		TaskID: f.TaskID,
		Output: truncate(string(out), 16*1024),
		WallMS: wall.Milliseconds(),
	}
	// Measured CPU: rusage user+system over wall time — the signal
	// the resource monitor aggregates per category.
	if cmd.ProcessState != nil && wall > 0 {
		cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
		res.CPUMilli = int64(float64(cpu) / float64(wall) * 1000)
	}
	if err != nil {
		if exitErr, ok := err.(*exec.ExitError); ok {
			res.ExitCode = exitErr.ExitCode()
		} else {
			res.ExitCode = -1
			res.Error = err.Error()
		}
	}
	return res
}

// groupReapTimeout bounds how long execute waits for a killed task's
// process group to disappear. Some container inits reap orphans only
// every couple of seconds.
const groupReapTimeout = 5 * time.Second

// awaitGroupGone waits, at most timeout, until no member of process
// group pgid is left. Go reaps the shell it started, but the shell's
// children are reparented to the nearest subreaper and linger as
// zombies until it reaps them, so a task reported as killed would
// still have processes in the table. The worker reaps the members
// reparented to it itself: it is that subreaper when it runs as a
// container's PID 1 with no init. Members reparented elsewhere are
// left to their new parent.
func awaitGroupGone(pgid int, timeout time.Duration) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		for {
			pid, err := syscall.Wait4(-pgid, nil, syscall.WNOHANG, nil)
			if pid <= 0 || err != nil {
				break
			}
		}
		if syscall.Kill(-pgid, 0) == syscall.ESRCH {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
