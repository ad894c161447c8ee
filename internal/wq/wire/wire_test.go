package wire

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hta/internal/resources"
)

func newPair(t *testing.T, workers int, capacity resources.Vector) (*Master, []*Worker) {
	t.Helper()
	m, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	var ws []*Worker
	for i := 0; i < workers; i++ {
		w, err := Connect(m.Addr(), WorkerConfig{
			ID:       fmt.Sprintf("w%d", i+1),
			Capacity: capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		ws = append(ws, w)
	}
	waitFor(t, func() bool { return m.Stats().Workers == workers }, "workers to register")
	return m, ws
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSubmitAndExecute(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(2, 1024, 100))
	var mu sync.Mutex
	var got []Result
	m.OnComplete(func(r Result) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	id := m.Submit("echo hello", "test", resources.New(1, 256, 10))
	waitFor(t, func() bool { return m.Stats().Done == 1 }, "task completion")
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("completions = %d", len(got))
	}
	r := got[0].Task
	if r.ID != id || r.ExitCode != 0 {
		t.Errorf("result = %+v", r)
	}
	if strings.TrimSpace(r.Output) != "hello" {
		t.Errorf("output = %q", r.Output)
	}
	if r.WorkerID != "w1" || r.Attempts != 1 {
		t.Errorf("worker=%s attempts=%d", r.WorkerID, r.Attempts)
	}
	stored, ok := m.Task(id)
	if !ok || stored.Status != StatusDone {
		t.Errorf("stored = %+v ok=%v", stored, ok)
	}
}

func TestNonZeroExitCode(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(1, 256, 10))
	id := m.Submit("exit 3", "test", resources.New(1, 1, 1))
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusDone }, "failing task")
	st, _ := m.Task(id)
	if st.ExitCode != 3 {
		t.Errorf("exit code = %d, want 3", st.ExitCode)
	}
}

func TestParallelAcrossWorkers(t *testing.T) {
	m, _ := newPair(t, 3, resources.New(1, 256, 10))
	n := 9
	for i := 0; i < n; i++ {
		m.Submit(fmt.Sprintf("echo task%d", i), "batch", resources.New(1, 1, 1))
	}
	waitFor(t, func() bool { return m.Stats().Done == n }, "all tasks")
	// Tasks spread over all workers.
	seen := make(map[string]bool)
	for i := 1; i <= n; i++ {
		st, _ := m.Task(i)
		seen[st.WorkerID] = true
	}
	if len(seen) != 3 {
		t.Errorf("workers used = %v, want all 3", seen)
	}
}

func TestUnknownResourcesExclusive(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(4, 4096, 100))
	// Two unknown tasks on one worker: the second must wait until the
	// first finishes even though the worker has 4 slots.
	a := m.Submit("sleep 0.3", "u", resources.Zero)
	b := m.Submit("echo second", "u", resources.Zero)
	waitFor(t, func() bool { st, _ := m.Task(a); return st.Status == StatusRunning }, "first dispatch")
	if st, _ := m.Task(b); st.Status != StatusWaiting {
		t.Errorf("second unknown task status = %v, want waiting (exclusive mode)", st.Status)
	}
	waitFor(t, func() bool { return m.Stats().Done == 2 }, "both done")
}

func TestKnownResourcesPack(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(2, 2048, 100))
	a := m.Submit("sleep 0.3", "k", resources.New(1, 512, 1))
	b := m.Submit("sleep 0.3", "k", resources.New(1, 512, 1))
	waitFor(t, func() bool {
		sa, _ := m.Task(a)
		sb, _ := m.Task(b)
		return sa.Status == StatusRunning && sb.Status == StatusRunning
	}, "both running concurrently")
	waitFor(t, func() bool { return m.Stats().Done == 2 }, "both done")
}

func TestDrainFinishesRunningThenExits(t *testing.T) {
	m, ws := newPair(t, 1, resources.New(1, 256, 10))
	id := m.Submit("sleep 0.2 && echo done", "d", resources.New(1, 1, 1))
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusRunning }, "dispatch")
	if err := m.Drain("w1"); err != nil {
		t.Fatal(err)
	}
	if err := ws[0].Wait(); err != nil {
		t.Errorf("drained worker exit err = %v", err)
	}
	waitFor(t, func() bool { return m.Stats().Workers == 0 }, "worker removal")
	st, _ := m.Task(id)
	if st.Status != StatusDone || st.ExitCode != 0 {
		t.Errorf("task after drain = %+v", st)
	}
}

func TestDrainUnknownWorker(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(1, 256, 10))
	if err := m.Drain("ghost"); err == nil {
		t.Error("drain of unknown worker should fail")
	}
}

func TestWorkerDisconnectRequeues(t *testing.T) {
	m, ws := newPair(t, 1, resources.New(1, 256, 10))
	id := m.Submit("sleep 5", "r", resources.New(1, 1, 1))
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusRunning }, "dispatch")
	ws[0].Close()
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusWaiting }, "requeue")
	// A fresh worker picks it up and completes it (short command now
	// replaced by requeued sleep; shorten by letting it run → use
	// timeout-free path with a quick worker).
	w2, err := Connect(m.Addr(), WorkerConfig{ID: "w2", Capacity: resources.New(1, 256, 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusRunning && st.WorkerID == "w2" }, "redispatch")
	st, _ := m.Task(id)
	if st.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", st.Attempts)
	}
}

func TestTaskTimeout(t *testing.T) {
	m, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w, err := Connect(m.Addr(), WorkerConfig{
		ID:          "w1",
		Capacity:    resources.New(1, 256, 10),
		TaskTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	id := m.Submit("sleep 10", "t", resources.New(1, 1, 1))
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusDone }, "timeout kill")
	st, _ := m.Task(id)
	if st.ExitCode == 0 {
		t.Errorf("timed-out task exit = %d, want non-zero", st.ExitCode)
	}
}

// orphanCommand backgrounds a long sleep, records its pid in dir and
// waits on it: killing only the shell would leave the sleep running.
func orphanCommand(dir string) string {
	return fmt.Sprintf("sleep 30 & echo $! > %s/pid; wait", dir)
}

// childPid polls for the pid orphanCommand records.
func childPid(t *testing.T, dir string) int {
	t.Helper()
	var pid int
	waitFor(t, func() bool {
		b, err := os.ReadFile(filepath.Join(dir, "pid"))
		if err != nil {
			return false
		}
		pid, err = strconv.Atoi(strings.TrimSpace(string(b)))
		return err == nil
	}, "child pid")
	return pid
}

// waitProcessGone requires the process to disappear: kill(pid, 0)
// reports ESRCH. A zombie also counts — it has exited, and whether it
// is reaped is up to the container's init, not the worker.
func waitProcessGone(t *testing.T, pid int) {
	t.Helper()
	waitFor(t, func() bool {
		if syscall.Kill(pid, 0) == syscall.ESRCH {
			return true
		}
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return true
		}
		s := string(stat)
		return strings.HasPrefix(s[strings.LastIndexByte(s, ')')+1:], " Z")
	}, fmt.Sprintf("process %d to exit", pid))
}

func TestTaskTimeoutKillsChildren(t *testing.T) {
	m, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w, err := Connect(m.Addr(), WorkerConfig{
		ID:          "w1",
		Capacity:    resources.New(1, 256, 10),
		TaskTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	dir := t.TempDir()
	id := m.Submit(orphanCommand(dir), "t", resources.New(1, 1, 1))
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusDone }, "timeout kill")
	waitProcessGone(t, childPid(t, dir))
}

func TestCloseKillsRunningChildren(t *testing.T) {
	m, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w, err := Connect(m.Addr(), WorkerConfig{ID: "w1", Capacity: resources.New(1, 256, 10)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	id := m.Submit(orphanCommand(dir), "t", resources.New(1, 1, 1))
	pid := childPid(t, dir)
	w.Close()
	waitProcessGone(t, pid)
	if st, _ := m.Task(id); st.Status == StatusDone {
		t.Errorf("killed attempt reported as the task's result: %+v", st)
	}
}

func TestRegisterValidation(t *testing.T) {
	if _, err := Connect("127.0.0.1:1", WorkerConfig{ID: "", Capacity: resources.Cores(1)}); err == nil {
		t.Error("empty ID should fail")
	}
	if _, err := Connect("127.0.0.1:1", WorkerConfig{ID: "x"}); err == nil {
		t.Error("zero capacity should fail")
	}
}

func TestDuplicateWorkerIDRejected(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(1, 256, 10))
	// The master drops the duplicate without an ack, so the handshake
	// fails and the error surfaces at Connect.
	w2, err := Connect(m.Addr(), WorkerConfig{
		ID:               "w1",
		Capacity:         resources.New(1, 256, 10),
		HandshakeTimeout: 500 * time.Millisecond,
	})
	if err == nil {
		w2.Close()
		t.Error("duplicate worker should be rejected during the handshake")
	}
	if got := m.Stats().Workers; got != 1 {
		t.Errorf("workers = %d, want 1", got)
	}
}

func TestMasterCloseIdempotent(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(1, 256, 10))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestSubmitBeforeWorkers(t *testing.T) {
	m, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id := m.Submit("echo queued", "q", resources.New(1, 1, 1))
	if st, _ := m.Task(id); st.Status != StatusWaiting {
		t.Fatalf("status = %v", st.Status)
	}
	w, err := Connect(m.Addr(), WorkerConfig{ID: "late", Capacity: resources.New(1, 256, 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusDone }, "late-worker pickup")
}

func TestHeartbeatKeepsWorkerAlive(t *testing.T) {
	m, err := ListenConfig("127.0.0.1:0", MasterConfig{HeartbeatTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w, err := Connect(m.Addr(), WorkerConfig{
		ID:                "alive",
		Capacity:          resources.New(1, 256, 10),
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitFor(t, func() bool { return m.Stats().Workers == 1 }, "registration")
	time.Sleep(time.Second) // several timeout windows
	if got := m.Stats().Workers; got != 1 {
		t.Errorf("workers = %d after heartbeat windows, want 1", got)
	}
}

func TestSilentWorkerReaped(t *testing.T) {
	m, err := ListenConfig("127.0.0.1:0", MasterConfig{HeartbeatTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w, err := Connect(m.Addr(), WorkerConfig{
		ID:                "silent",
		Capacity:          resources.New(1, 256, 10),
		HeartbeatInterval: -1, // disabled: looks dead to the master
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	id := m.Submit("sleep 30", "r", resources.New(1, 1, 1))
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusRunning }, "dispatch")
	// The master must reap the silent worker and requeue the task.
	waitFor(t, func() bool { return m.Stats().Workers == 0 }, "reaping")
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusWaiting }, "requeue")
}

func TestMasterSurvivesGarbageConnection(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(1, 256, 10))
	// A client that speaks garbage must be dropped without affecting
	// the registered worker.
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("GET / HTTP/1.1\r\n\r\n{not json}\n"))
	raw.Close()
	// Another connection registering with a bogus frame type.
	raw2, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw2.Write([]byte(`{"type":"result","task_id":999}` + "\n"))
	raw2.Close()
	time.Sleep(50 * time.Millisecond)
	id := m.Submit("echo alive", "g", resources.New(1, 1, 1))
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusDone }, "master still serving")
	if got := m.Stats().Workers; got != 1 {
		t.Errorf("workers = %d, want the real one only", got)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(1, 256, 10))
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A 2 MiB line exceeds the frame cap; the master must drop the
	// connection rather than buffer unboundedly.
	huge := make([]byte, 2<<20)
	for i := range huge {
		huge[i] = 'x'
	}
	raw.Write([]byte(`{"type":"register","worker_id":"`))
	raw.Write(huge)
	raw.Write([]byte(`"}` + "\n"))
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Error("expected the master to close the oversized connection")
	}
	if got := m.Stats().Workers; got != 1 {
		t.Errorf("workers = %d", got)
	}
}

func TestSnapshotsExposeDispatchState(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(2, 2048, 100))
	a := m.Submit("sleep 0.5", "s", resources.New(1, 256, 1))
	m.Submit("sleep 0.5", "s", resources.New(1, 256, 1))
	c := m.Submit("sleep 0.5", "s", resources.New(1, 256, 1)) // third waits: 2 slots
	waitFor(t, func() bool { return len(m.RunningTasks()) == 2 }, "two running")
	running := m.RunningTasks()
	if running[0].ID != a || running[0].StartedAt.IsZero() {
		t.Errorf("running[0] = %+v", running[0])
	}
	if running[0].Allocated.MilliCPU != 1000 {
		t.Errorf("allocated = %v", running[0].Allocated)
	}
	wt := m.WaitingTasks()
	if len(wt) != 1 || wt[0].ID != c {
		t.Errorf("waiting = %+v", wt)
	}
	det := m.WorkerDetails()
	if len(det) != 1 || det[0].Running != 2 || det[0].Capacity.MilliCPU != 2000 {
		t.Errorf("details = %+v", det)
	}
	waitFor(t, func() bool { return m.Stats().Done == 3 }, "all done")
}

func TestMeasuredCPUReported(t *testing.T) {
	m, _ := newPair(t, 1, resources.New(2, 1024, 100))
	// A CPU-busy loop: rusage must show substantial utilization.
	busy := m.Submit("i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done", "busy", resources.New(1, 64, 1))
	idle := m.Submit("sleep 0.4", "idle", resources.New(1, 64, 1))
	waitFor(t, func() bool { return m.Stats().Done == 2 }, "both done")
	b, _ := m.Task(busy)
	if b.MeasuredCPUMilli < 300 {
		t.Errorf("busy task measured %dm CPU, want substantial", b.MeasuredCPUMilli)
	}
	i, _ := m.Task(idle)
	if i.MeasuredCPUMilli > 300 {
		t.Errorf("idle task measured %dm CPU, want near zero", i.MeasuredCPUMilli)
	}
}

func TestWirePriorityOrdering(t *testing.T) {
	m, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Queue three tasks before any worker exists; the high-priority
	// one must dispatch first.
	low1 := m.Submit("echo low1", "p", resources.New(1, 1, 1))
	low2 := m.Submit("echo low2", "p", resources.New(1, 1, 1))
	high := m.SubmitPriority("echo high", "p", resources.New(1, 1, 1), 5)
	var mu sync.Mutex
	var order []int
	m.OnComplete(func(r Result) {
		mu.Lock()
		order = append(order, r.Task.ID)
		mu.Unlock()
	})
	w, err := Connect(m.Addr(), WorkerConfig{ID: "w1", Capacity: resources.New(1, 256, 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitFor(t, func() bool { return m.Stats().Done == 3 }, "all done")
	mu.Lock()
	defer mu.Unlock()
	if order[0] != high || order[1] != low1 || order[2] != low2 {
		t.Errorf("order = %v, want [%d %d %d]", order, high, low1, low2)
	}
}
