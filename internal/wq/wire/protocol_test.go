package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hta/internal/resources"
)

// TestHalfWrittenFrameDoesNotWedgeMaster is the regression test for
// the registration read deadline: a peer that connects, writes half a
// frame, and stalls used to pin a serve goroutine on a read that
// never returns — and Close, which waits for every serve goroutine,
// hung with it. Now the master drops the peer at RegisterTimeout and
// keeps serving real workers.
func TestHalfWrittenFrameDoesNotWedgeMaster(t *testing.T) {
	m, err := ListenConfig("127.0.0.1:0", MasterConfig{RegisterTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	peer, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if _, err := peer.Write([]byte(`{"type":"regi`)); err != nil { // no newline, never finished
		t.Fatal(err)
	}

	// The master must hang up on the stalled peer.
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Fatal("master kept the half-written connection open past the register timeout")
	}

	// And still admit a real worker afterwards.
	w, err := Connect(m.Addr(), WorkerConfig{ID: "w1", Capacity: resources.New(2, 1024, 100)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	waitFor(t, func() bool { return m.Stats().Workers == 1 }, "worker to register")

	// Close must return promptly — the wedge was a serve goroutine
	// Close's WaitGroup never saw exit.
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: a serve goroutine is still wedged")
	}
}

// TestOversizedFrameDropped: a peer flooding more than maxFrameBytes
// without a newline is disconnected instead of growing the scan
// buffer without bound.
func TestOversizedFrameDropped(t *testing.T) {
	m, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	peer, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	junk := []byte(strings.Repeat("a", 64<<10))
	for written := 0; written <= maxFrameBytes+len(junk); written += len(junk) {
		if _, err := peer.Write(junk); err != nil {
			break // master already hung up mid-flood — that's the point
		}
	}
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Fatal("master kept reading an unbounded frame")
	}
	if m.Stats().Workers != 0 {
		t.Fatalf("flood registered as a worker: %+v", m.Stats())
	}
}

// TestParseFrameRejects pins the decoder's error cases directly.
func TestParseFrameRejects(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"empty", ""},
		{"not json", "garbage"},
		{"half frame", `{"type":"regi`},
		{"no type", `{"worker_id":"w1"}`},
		{"wrong field type", `{"type":"task","task_id":"nope"}`},
	}
	for _, tc := range cases {
		if _, err := parseFrame([]byte(tc.line)); err == nil {
			t.Errorf("%s: parseFrame accepted %q", tc.name, tc.line)
		}
	}
	f, err := parseFrame([]byte(`{"type":"register","worker_id":"w1","cores":4000}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != TypeRegister || f.WorkerID != "w1" || f.Cores != 4000 {
		t.Fatalf("parseFrame = %+v", f)
	}
	if _, err := parseFrame(make([]byte, maxFrameBytes+1)); err != errFrameTooLong {
		t.Fatalf("oversized line: err = %v, want errFrameTooLong", err)
	}
}

// FuzzProtocolParse fuzzes the frame decoder: it must never panic,
// and every frame it accepts must have a type and survive a
// marshal/parse round trip. The committed corpus
// (testdata/fuzz/FuzzProtocolParse) seeds one example per frame type
// plus the malformed shapes the parser rejects.
func FuzzProtocolParse(f *testing.F) {
	f.Add([]byte(`{"type":"register","worker_id":"w1","cores":4000,"memory_mb":1024,"inflight_ids":[1,2]}`))
	f.Add([]byte(`{"type":"register_ack","worker_id":"w1","drop_ids":[3]}`))
	f.Add([]byte(`{"type":"task","task_id":7,"command":"echo hi","category":"sim","req_cores":870}`))
	f.Add([]byte(`{"type":"result","task_id":7,"exit_code":0,"output":"hi","wall_ms":12,"cpu_milli":430}`))
	f.Add([]byte(`{"type":"heartbeat"}`))
	f.Add([]byte(`{"type":"drain"}`))
	f.Add([]byte(`{"type":"regi`))
	f.Add([]byte(`{"worker_id":"no-type"}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, line []byte) {
		fr, err := parseFrame(line)
		if err != nil {
			return
		}
		if fr.Type == "" {
			t.Fatal("parseFrame accepted a frame without type")
		}
		data, err := json.Marshal(fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-marshal: %v", err)
		}
		again, err := parseFrame(data)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		b2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("round-tripped frame does not re-marshal: %v", err)
		}
		if string(b2) != string(data) {
			t.Fatalf("round trip changed frame: %s vs %s", data, b2)
		}
	})
}

// TestRegisterRejectsImpossibleCapacity pins registration's capacity
// check: a worker is admitted only with no negative component and at
// least one positive one, since a negative component beside a positive
// one would give the worker's pool a negative capacity.
func TestRegisterRejectsImpossibleCapacity(t *testing.T) {
	m, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	cases := []struct {
		name                    string
		cores, memoryMB, diskMB int64
		admit                   bool
	}{
		{"whole", 2000, 1024, 100, true},
		{"cores only", 1000, 0, 0, true},
		{"zero", 0, 0, 0, false},
		{"negative cores", -1000, 1024, 100, false},
		{"negative memory", 2000, -1, 100, false},
		{"negative disk", 2000, 1024, -100, false},
		{"all negative", -1, -1, -1, false},
	}
	for i, tc := range cases {
		peer, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		reg, _ := json.Marshal(Frame{Type: TypeRegister, WorkerID: fmt.Sprint("w", i),
			Cores: tc.cores, MemoryMB: tc.memoryMB, DiskMB: tc.diskMB})
		if _, err := peer.Write(append(reg, '\n')); err != nil {
			t.Fatal(err)
		}
		peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := bufio.NewReader(peer).ReadBytes('\n')
		admitted := err == nil && strings.Contains(string(line), TypeRegisterAck)
		peer.Close()
		if admitted != tc.admit {
			t.Errorf("%s: admitted %v (reply %q, %v), want %v", tc.name, admitted, line, err, tc.admit)
		}
	}
}
