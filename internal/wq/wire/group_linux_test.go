package wire

import (
	"context"
	"syscall"
	"testing"
	"time"

	"hta/internal/resources"
)

// prSetChildSubreaper is prctl's PR_SET_CHILD_SUBREAPER option.
const prSetChildSubreaper = 36

// TestCanceledTaskLeavesNoGroupMember cancels a command that
// backgrounds a sleep and requires execute to return only once no
// member of the command's process group is left, zombies included: a
// stray that its new parent has not reaped yet shows in the process
// table after the worker reported the task. The killed sleep is
// reparented either to init, which reaps it in its own time, or, when
// the worker is a child subreaper as a worker running as a container's
// PID 1 is, to the worker, where no one but execute reaps it; then
// execute must also return well before groupReapTimeout.
func TestCanceledTaskLeavesNoGroupMember(t *testing.T) {
	t.Run("init reaps", func(t *testing.T) { cancelOrphanCommand(t, groupReapTimeout) })
	t.Run("worker reaps", func(t *testing.T) {
		if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
			t.Skipf("prctl(PR_SET_CHILD_SUBREAPER): %v", errno)
		}
		t.Cleanup(func() { syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 0, 0) })
		cancelOrphanCommand(t, groupReapTimeout/5)
	})
}

// cancelOrphanCommand cancels orphanCommand in execute and requires
// execute to return within limit with no member of its group left.
func cancelOrphanCommand(t *testing.T, limit time.Duration) {
	w, err := NewWorker(WorkerConfig{ID: "w1", Capacity: resources.New(1, 256, 10)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := make(chan Frame, 1)
	go func() { res <- w.execute(ctx, Frame{TaskID: 1, Command: orphanCommand(dir)}) }()
	pid := childPid(t, dir)
	pgid, err := syscall.Getpgid(pid)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cancel()
	if f := <-res; f.ExitCode == 0 {
		t.Errorf("canceled task exit = %d, want non-zero", f.ExitCode)
	}
	if took := time.Since(start); took > limit {
		t.Errorf("canceled execute took %v to return, want at most %v", took, limit)
	}
	if err := syscall.Kill(-pgid, 0); err != syscall.ESRCH {
		t.Fatalf("process group %d still has a member after execute returned (kill: %v)", pgid, err)
	}
}
