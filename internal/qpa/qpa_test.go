package qpa

import (
	"testing"
	"time"

	"hta/internal/bind"
	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

type rig struct {
	eng  *simclock.Engine
	c    *kubesim.Cluster
	m    *wq.Master
	ws   *kubesim.WorkerSet
	ctrl *Controller
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := simclock.NewEngine(t0)
	c := kubesim.NewCluster(eng, kubesim.Config{InitialNodes: 25, MaxNodes: 30, Seed: 1})
	m := wq.NewMaster(eng, nil)
	binder := bind.Workers(c, m, map[string]string{"app": "wq-worker"})
	t.Cleanup(func() {
		if err := binder.Err(); err != nil {
			t.Errorf("binder: %v", err)
		}
	})
	template := kubesim.PodSpec{
		Image:     "wq-worker",
		Resources: resources.New(3, 12288, 10000),
		Labels:    map[string]string{"app": "wq-worker"},
	}
	ws, err := kubesim.NewWorkerSet(c, "workers", template, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := New(c, ws, m, cfg)
	t.Cleanup(func() { ctrl.Stop(); ws.Stop(); c.Stop() })
	return &rig{eng: eng, c: c, m: m, ws: ws, ctrl: ctrl}
}

func TestScalesToQueueLength(t *testing.T) {
	r := newRig(t, Config{TasksPerWorker: 3, MaxReplicas: 20})
	for i := 0; i < 30; i++ {
		r.m.Submit(wq.TaskSpec{
			Category:  "c",
			Resources: resources.New(1, 1024, 10),
			Profile:   wq.Profile{ExecDuration: time.Hour, UsedCPUMilli: 900},
		})
	}
	r.eng.RunFor(time.Minute)
	// 30 outstanding / 3 per worker = 10.
	if got := r.ws.Replicas(); got != 10 {
		t.Errorf("replicas = %d, want 10", got)
	}
	if r.ctrl.LastDesired != 10 {
		t.Errorf("LastDesired = %d", r.ctrl.LastDesired)
	}
}

func TestClampsToMax(t *testing.T) {
	r := newRig(t, Config{TasksPerWorker: 1, MaxReplicas: 5})
	for i := 0; i < 100; i++ {
		r.m.Submit(wq.TaskSpec{
			Resources: resources.New(1, 1024, 10),
			Profile:   wq.Profile{ExecDuration: time.Hour},
		})
	}
	r.eng.RunFor(time.Minute)
	if got := r.ws.Replicas(); got != 5 {
		t.Errorf("replicas = %d, want clamp 5", got)
	}
}

func TestStabilizationHoldsThenScalesToFloor(t *testing.T) {
	r := newRig(t, Config{TasksPerWorker: 3, MaxReplicas: 20, Stabilization: 5 * time.Minute})
	for i := 0; i < 9; i++ {
		r.m.Submit(wq.TaskSpec{
			Resources: resources.New(1, 1024, 10),
			Profile:   wq.Profile{ExecDuration: 2 * time.Minute, UsedCPUMilli: 900},
		})
	}
	r.eng.RunFor(time.Minute)
	if got := r.ws.Replicas(); got != 3 {
		t.Fatalf("replicas = %d, want 3", got)
	}
	// All tasks finish within a few minutes; the set must hold the
	// peak recommendation until the stabilization window passes.
	r.eng.RunFor(4 * time.Minute)
	if r.m.CompletedCount() != 9 {
		t.Fatalf("completed = %d", r.m.CompletedCount())
	}
	if got := r.ws.Replicas(); got != 3 {
		t.Errorf("replicas = %d inside stabilization window, want 3", got)
	}
	r.eng.RunFor(10 * time.Minute)
	if got := r.ws.Replicas(); got != 1 {
		t.Errorf("replicas = %d after window, want floor 1", got)
	}
}

func TestScaleDownFollowsQueueAfterWindow(t *testing.T) {
	r := newRig(t, Config{TasksPerWorker: 1, MaxReplicas: 20, Stabilization: time.Minute})
	for i := 0; i < 6; i++ {
		r.m.Submit(wq.TaskSpec{
			Resources: resources.New(1, 1024, 10),
			Profile:   wq.Profile{ExecDuration: 10 * time.Minute, UsedCPUMilli: 900},
		})
	}
	r.eng.RunFor(time.Minute)
	if got := r.ws.Replicas(); got != 6 {
		t.Fatalf("replicas = %d, want 6", got)
	}
	// With a short window, the set follows the queue down once tasks
	// complete.
	r.eng.RunFor(15 * time.Minute)
	if got := r.ws.Replicas(); got != 1 {
		t.Errorf("replicas = %d after drain, want floor", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	eng := simclock.NewEngine(t0)
	c := kubesim.NewCluster(eng, kubesim.Config{Seed: 1})
	defer c.Stop()
	m := wq.NewMaster(eng, nil)
	ws, err := kubesim.NewWorkerSet(c, "w", kubesim.PodSpec{Image: "i", Resources: resources.Vector{MilliCPU: 1000}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for TasksPerWorker=0")
		}
	}()
	New(c, ws, m, Config{})
}
