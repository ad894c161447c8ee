package wire

import (
	"net"
	"testing"
	"time"

	"hta/internal/resources"
)

// TestBackoffNotResetBySuccessfulDialAlone is the regression test for
// the reconnect pacing bug: the backoff must reset only after the
// master's register_ack, not after a successful TCP dial. Against a
// listener that accepts and immediately closes (a crash-looping
// master), every attempt dials fine and fails the handshake — the
// retry delays must keep growing.
func TestBackoffNotResetBySuccessfulDialAlone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	var sleeps []time.Duration
	now := time.Unix(0, 0)
	err = RunWorker(ln.Addr().String(), WorkerConfig{
		ID:               "w1",
		Capacity:         resources.New(1, 256, 10),
		HandshakeTimeout: time.Second,
	}, RunOptions{
		ReconnectWindow: 100 * time.Millisecond,
		Backoff:         &Backoff{Base: 10 * time.Millisecond, Max: 10 * time.Second},
		Sleep: func(d time.Duration) {
			sleeps = append(sleeps, d)
			now = now.Add(d) // virtual time: no real sleeping
		},
		Now: func() time.Time { return now },
	})
	if err == nil {
		t.Fatal("RunWorker should give up once the reconnect window expires")
	}
	// 10+20+40+80 ms crosses the 100 ms window: exactly 4 growing
	// delays. A dial-resets-backoff regression would sleep a constant
	// 10 ms (and 10 more times before giving up).
	if len(sleeps) != 4 {
		t.Fatalf("sleeps = %v, want 4 strictly growing delays", sleeps)
	}
	for i := 1; i < len(sleeps); i++ {
		if sleeps[i] <= sleeps[i-1] {
			t.Fatalf("delay %d did not grow: %v (backoff reset by successful dial?)", i, sleeps)
		}
	}
}

// TestReconnectRescuesInflightTask severs a worker's connection while
// its command is executing: the command keeps running, the worker
// reconnects inside the reattach grace, and the master rescues the
// attempt instead of rescheduling it.
func TestReconnectRescuesInflightTask(t *testing.T) {
	m, err := ListenConfig("127.0.0.1:0", MasterConfig{ReattachGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	runDone := make(chan error, 1)
	go func() {
		runDone <- RunWorker(m.Addr(), WorkerConfig{
			ID:       "w1",
			Capacity: resources.New(1, 256, 10),
		}, RunOptions{
			ReconnectWindow: 10 * time.Second,
			Backoff:         &Backoff{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond},
		})
	}()
	waitFor(t, func() bool { return m.Stats().Workers == 1 }, "registration")

	id := m.Submit("sleep 0.6; echo rescued", "c", resources.New(1, 1, 1))
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusRunning }, "dispatch")

	// Sever the TCP connection under the worker (network blip); the
	// shell command keeps executing.
	m.mu.Lock()
	wc := m.workers["w1"]
	m.mu.Unlock()
	_ = wc.conn.close()

	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusDone }, "completion after reconnect")
	st, _ := m.Task(id)
	if st.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (rescued, not redispatched)", st.Attempts)
	}
	if st.ExitCode != 0 || st.Output == "" {
		t.Errorf("result lost across reconnect: %+v", st)
	}
	if err := m.Drain("w1"); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Errorf("RunWorker after drain: %v", err)
	}
}

// TestReattachGraceExpiryRequeues parks a disconnected worker's task
// and requeues it when the worker never returns. The park is read when
// the master sees the disconnect, before the worker is closed: Close
// waits for the killed command's process group, which can outlast the
// grace on a loaded machine.
func TestReattachGraceExpiryRequeues(t *testing.T) {
	m, err := ListenConfig("127.0.0.1:0", MasterConfig{ReattachGrace: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w, err := Connect(m.Addr(), WorkerConfig{ID: "w1", Capacity: resources.New(1, 256, 10)})
	if err != nil {
		t.Fatal(err)
	}
	id := m.Submit("sleep 30", "c", resources.New(1, 1, 1))
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusRunning }, "dispatch")

	// Sever the connection under the worker; its command keeps running.
	m.mu.Lock()
	wc := m.workers["w1"]
	m.mu.Unlock()
	_ = wc.conn.close()
	// Parked first: still assigned during the grace window. The status
	// is read in the same critical section that sees the disconnect.
	var status TaskStatus
	waitFor(t, func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, connected := m.workers["w1"]; connected {
			return false
		}
		status = m.tasks[id].Status
		return true
	}, "disconnect")
	if status != StatusRunning {
		t.Fatalf("status right after disconnect = %v, want still running (parked)", status)
	}
	w.Close() // the worker dies for good
	// ...then requeued once the grace expires.
	waitFor(t, func() bool { st, _ := m.Task(id); return st.Status == StatusWaiting }, "requeue after grace")
}
