package operator

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hta/internal/dag"
	"hta/internal/flow"
	"hta/internal/kubeclient"
	"hta/internal/kubeclient/kubetest"
	"hta/internal/makeflow"
	"hta/internal/resources"
	"hta/internal/wq"
	"hta/internal/wq/wire"
)

// fakeKubelet watches the fake API server and behaves like a node
// agent: when a worker pod appears it marks it Running after a short
// startup delay and connects a *real* TCP worker (executing real
// shell commands) with the pod's identity and requested capacity.
// When the pod's worker disconnects (drain), nothing needs doing —
// the operator deletes the pod and the watch shows DELETED.
type fakeKubelet struct {
	t          *testing.T
	srv        *kubetest.Server
	client     *kubeclient.Client
	masterAddr string
	startup    time.Duration

	mu      sync.Mutex
	workers map[string]*wire.Worker
}

func startKubelet(t *testing.T, ctx context.Context, srv *kubetest.Server, client *kubeclient.Client, masterAddr string) *fakeKubelet {
	t.Helper()
	k := &fakeKubelet{
		t: t, srv: srv, client: client, masterAddr: masterAddr,
		startup: 50 * time.Millisecond,
		workers: make(map[string]*wire.Worker),
	}
	labels := map[string]string{"app": "wq-worker"}
	events, err := client.WatchPods(ctx, labels)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			for ev := range events {
				switch ev.Type {
				case kubeclient.WatchAdded:
					go k.startPod(ev.Pod)
				case kubeclient.WatchDeleted:
					k.stopPod(ev.Pod.Metadata.Name)
				}
			}
			// Watch dropped (fake API-server restart): re-establish,
			// like a real node agent. The initial sync replays existing
			// pods as ADDED; startPod ignores ones it already runs.
			if ctx.Err() != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
			if ch, err := client.WatchPods(ctx, labels); err == nil {
				events = ch
			}
		}
	}()
	t.Cleanup(func() {
		k.mu.Lock()
		defer k.mu.Unlock()
		for _, w := range k.workers {
			w.Close()
		}
	})
	return k
}

func (k *fakeKubelet) startPod(pod kubeclient.Pod) {
	name := pod.Metadata.Name
	k.mu.Lock()
	if _, running := k.workers[name]; running {
		k.mu.Unlock()
		return // replayed ADDED after a watch re-establishment
	}
	k.mu.Unlock()
	time.Sleep(k.startup)
	if err := k.srv.SetPodPhase("default", name, kubeclient.PodRunning); err != nil {
		return // pod already deleted
	}
	req := pod.Spec.Containers[0].Resources.Requests
	cpu, _ := kubeclient.ParseCPUQuantity(req["cpu"])
	mem, _ := kubeclient.ParseMemoryQuantity(req["memory"])
	w, err := wire.Connect(k.masterAddr, wire.WorkerConfig{
		ID:                name,
		Capacity:          resources.Vector{MilliCPU: cpu, MemoryMB: mem, DiskMB: 10000},
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return
	}
	k.mu.Lock()
	k.workers[name] = w
	k.mu.Unlock()
}

func (k *fakeKubelet) stopPod(name string) {
	k.mu.Lock()
	w := k.workers[name]
	delete(k.workers, name)
	k.mu.Unlock()
	if w != nil {
		w.Close()
	}
}

// livePods returns the operator's live pod count.
func livePods(o *Operator) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pods)
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// rig wires fake API server + TCP master + operator + fake kubelet.
type rig struct {
	srv    *kubetest.Server
	client *kubeclient.Client
	master *wire.Master
	op     *Operator
	cancel context.CancelFunc
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	srv := kubetest.NewServer()
	t.Cleanup(srv.Close)
	client, err := kubeclient.New(kubeclient.Config{BaseURL: srv.URL()})
	if err != nil {
		t.Fatal(err)
	}
	master, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	startKubelet(t, ctx, srv, client, master.Addr())

	cfg.Client = client
	cfg.Master = master
	if cfg.WorkerImage == "" {
		cfg.WorkerImage = "wq-worker:latest"
	}
	if cfg.Cycle == 0 {
		cfg.Cycle = 120 * time.Millisecond
	}
	if cfg.InitTimeFallback == 0 {
		cfg.InitTimeFallback = 300 * time.Millisecond
	}
	op, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go op.Run(ctx)
	return &rig{srv: srv, client: client, master: master, op: op, cancel: cancel}
}

func TestOperatorEndToEnd(t *testing.T) {
	r := newRig(t, Config{
		WorkerResources: resources.New(2, 2048, 10000),
		InitialWorkers:  1,
		MinWorkers:      0,
		MaxWorkers:      5,
	})
	// Warm-up fleet connects.
	waitFor(t, func() bool { return r.master.Stats().Workers == 1 }, "initial worker")

	// Offer more work than one worker holds: 8 one-core tasks on
	// two-core workers.
	n := 8
	for i := 0; i < n; i++ {
		r.master.Submit(fmt.Sprintf("sleep 0.4 && echo task%d", i), "batch", resources.New(1, 256, 1))
	}
	// The operator scales up...
	waitFor(t, func() bool { return r.master.Stats().Workers >= 3 }, "scale-up")
	// ...everything completes...
	waitFor(t, func() bool { return r.master.Stats().Done == n }, "all tasks")
	for i := 1; i <= n; i++ {
		task, _ := r.master.Task(i)
		if task.ExitCode != 0 {
			t.Errorf("task %d exit = %d (%s)", i, task.ExitCode, task.Err)
		}
	}
	// ...and the idle fleet is drained away and its pods deleted.
	waitFor(t, func() bool { return r.master.Stats().Workers == 0 }, "drain")
	waitFor(t, func() bool { return r.srv.PodCount() == 0 }, "pod deletion")
	waitFor(t, func() bool { return livePods(r.op) == 0 }, "operator bookkeeping")
	// The warm-up pod's cold start was measured.
	if d, measured := r.op.InitTime(); !measured || d <= 0 || d > 5*time.Second {
		t.Errorf("init time = %v measured=%v", d, measured)
	}
	// The monitor learned the category.
	if !r.op.Monitor().Known("batch") {
		t.Error("category never measured")
	}
}

func TestOperatorAdoptsExistingPods(t *testing.T) {
	srv := kubetest.NewServer()
	defer srv.Close()
	client, err := kubeclient.New(kubeclient.Config{BaseURL: srv.URL()})
	if err != nil {
		t.Fatal(err)
	}
	master, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	// A pod from a previous operator incarnation already exists.
	_, err = client.CreatePod(context.Background(), kubeclient.Pod{
		Metadata: kubeclient.ObjectMeta{
			Name:   "wq-worker-7",
			Labels: map[string]string{"app": "wq-worker", "managed-by": "hta"},
		},
		Spec: kubeclient.PodSpec{Containers: []kubeclient.Container{{
			Name: "worker", Image: "wq-worker:latest",
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	op, err := New(Config{
		Client: client, Master: master,
		WorkerImage:    "wq-worker:latest",
		InitialWorkers: 2,
		Cycle:          100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go op.Run(ctx)
	// The operator adopts the pod and creates only one more (to reach
	// InitialWorkers=2), numbered after the adopted one.
	waitFor(t, func() bool { return srv.PodCount() == 2 }, "fleet completion")
	if _, ok := srv.Pod("default", "wq-worker-8"); !ok {
		t.Error("new pod not numbered after adopted wq-worker-7")
	}
	if got := livePods(op); got != 2 {
		t.Errorf("tracked pods = %d", got)
	}
}

func TestOperatorRewatchesAfterWatchDrop(t *testing.T) {
	r := newRig(t, Config{
		WorkerResources: resources.New(2, 2048, 10000),
		InitialWorkers:  1,
		MinWorkers:      2, // keep the idle fleet from draining mid-test
		MaxWorkers:      5,
	})
	waitFor(t, func() bool { return r.master.Stats().Workers == 1 }, "initial worker")

	// Sever every watch stream — an API-server restart from the
	// watchers' point of view. The operator must re-establish its
	// watch instead of dying.
	r.srv.DropWatches()

	// A pod created around the outage reaches the operator only
	// through the re-established watch (live event or resync list).
	_, err := r.client.CreatePod(context.Background(), kubeclient.Pod{
		Metadata: kubeclient.ObjectMeta{
			Name:   "wq-worker-99",
			Labels: map[string]string{"app": "wq-worker", "managed-by": "hta"},
		},
		Spec: kubeclient.PodSpec{Containers: []kubeclient.Container{{
			Name: "worker", Image: "wq-worker:latest",
			Resources: kubeclient.ResourceRequirements{Requests: kubeclient.ResourceList{
				"cpu":    kubeclient.FormatCPUMilli(2000),
				"memory": kubeclient.FormatMemoryMB(2048),
			}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return livePods(r.op) == 2 }, "adoption after rewatch")

	// Live events flow again: a deletion is observed, not just listed.
	if err := r.client.DeletePod(context.Background(), "wq-worker-99"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return livePods(r.op) == 1 }, "deletion after rewatch")
}

// TestOperatorRestartResumesLearnedState kills the operator process
// (context cancel) mid-life and starts a fresh incarnation against the
// same cluster, master, and state file: the new operator must load the
// learned category estimates and measured init time from its
// checkpoint, adopt the surviving pods, and not double-scale the
// fleet.
func TestOperatorRestartResumesLearnedState(t *testing.T) {
	srv := kubetest.NewServer()
	defer srv.Close()
	client, err := kubeclient.New(kubeclient.Config{BaseURL: srv.URL()})
	if err != nil {
		t.Fatal(err)
	}
	master, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	// The kubelet outlives both operator incarnations, like a real
	// node agent outlives a control-plane restart.
	kctx, kcancel := context.WithCancel(context.Background())
	defer kcancel()
	startKubelet(t, kctx, srv, client, master.Addr())

	statePath := filepath.Join(t.TempDir(), "operator-state.json")
	cfg := Config{
		Client: client, Master: master,
		WorkerImage:      "wq-worker:latest",
		WorkerResources:  resources.New(2, 2048, 10000),
		InitialWorkers:   2,
		MinWorkers:       2, // keep the fleet alive across the restart
		MaxWorkers:       4,
		Cycle:            100 * time.Millisecond,
		InitTimeFallback: 300 * time.Millisecond,
		StatePath:        statePath,
	}

	op1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	go op1.Run(ctx1)
	waitFor(t, func() bool { return master.Stats().Workers == 2 }, "initial fleet")

	for i := 0; i < 4; i++ {
		master.Submit("sleep 0.2", "persist", resources.New(1, 128, 1))
	}
	waitFor(t, func() bool { return master.Stats().Done == 4 }, "first batch")
	waitFor(t, func() bool { return op1.Monitor().Known("persist") }, "category learned")
	waitFor(t, func() bool {
		d, measured := op1.InitTime()
		return measured && d > 0
	}, "init time measured")
	// Wait for a checkpoint carrying the learned category (written on
	// the next resize cycle at the latest).
	waitFor(t, func() bool {
		data, err := os.ReadFile(statePath)
		return err == nil && strings.Contains(string(data), "persist")
	}, "checkpoint written")
	wantInit, _ := op1.InitTime()
	wantEstimate, _ := op1.Monitor().EstimateResources("persist")

	cancel1() // the operator process dies; pods and master survive
	podsBefore := srv.PodCount()
	if podsBefore == 0 {
		t.Fatal("no pods survived the operator kill")
	}

	op2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Learned state is available immediately after New, before Run:
	// the checkpoint, not live traffic, is the source.
	if !op2.Monitor().Known("persist") {
		t.Fatal("restarted operator forgot the learned category")
	}
	if gotInit, measured := op2.InitTime(); !measured || gotInit != wantInit {
		t.Errorf("restarted init time = %v measured=%v, want %v measured", gotInit, measured, wantInit)
	}
	if got, ok := op2.Monitor().EstimateResources("persist"); !ok || got != wantEstimate {
		t.Errorf("restarted estimate = %+v, want %+v", got, wantEstimate)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go op2.Run(ctx2)
	// The new incarnation adopts the surviving pods instead of
	// creating a second fleet next to them.
	waitFor(t, func() bool { return livePods(op2) == podsBefore }, "pod adoption")
	time.Sleep(3 * cfg.Cycle) // a few cycles to catch double-scaling
	if got := srv.PodCount(); got != podsBefore {
		t.Errorf("pod count %d after restart, want %d (no double-scale)", got, podsBefore)
	}

	// And the loop still works: new tasks complete on the adopted fleet.
	for i := 0; i < 4; i++ {
		master.Submit("sleep 0.1", "persist", resources.New(1, 128, 1))
	}
	waitFor(t, func() bool { return master.Stats().Done == 8 }, "post-restart batch")
}

// TestOperatorToleratesCorruptState starts against a torn checkpoint:
// the operator must log and start fresh, never fail construction.
func TestOperatorToleratesCorruptState(t *testing.T) {
	srv := kubetest.NewServer()
	defer srv.Close()
	client, _ := kubeclient.New(kubeclient.Config{BaseURL: srv.URL()})
	master, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	statePath := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(statePath, []byte(`{"monitor":{"categories":[{"cat`), 0o644); err != nil {
		t.Fatal(err)
	}
	op, err := New(Config{
		Client: client, Master: master,
		WorkerImage: "wq-worker:latest",
		StatePath:   statePath,
	})
	if err != nil {
		t.Fatalf("corrupt checkpoint bricked the operator: %v", err)
	}
	if op.Monitor().Known("anything") {
		t.Error("corrupt checkpoint produced learned state")
	}
}

func TestOperatorConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing client/master should fail")
	}
	srv := kubetest.NewServer()
	defer srv.Close()
	client, _ := kubeclient.New(kubeclient.Config{BaseURL: srv.URL()})
	master, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	if _, err := New(Config{Client: client, Master: master}); err == nil {
		t.Error("missing image should fail")
	}
}

func TestOperatorRespectsMaxWorkers(t *testing.T) {
	r := newRig(t, Config{
		WorkerResources: resources.New(1, 1024, 10000),
		InitialWorkers:  1,
		MaxWorkers:      2,
	})
	waitFor(t, func() bool { return r.master.Stats().Workers == 1 }, "initial worker")
	for i := 0; i < 10; i++ {
		r.master.Submit("sleep 0.3", "cap", resources.New(1, 128, 1))
	}
	waitFor(t, func() bool { return r.master.Stats().Done == 10 }, "completion")
	if got := r.srv.PodCount(); got > 2 {
		t.Errorf("pods peaked at %d, want ≤ MaxWorkers 2", got)
	}
}

func TestOperatorRunsMakeflowWorkflow(t *testing.T) {
	r := newRig(t, Config{
		WorkerResources: resources.New(2, 2048, 10000),
		InitialWorkers:  1,
		MaxWorkers:      4,
	})
	waitFor(t, func() bool { return r.master.Stats().Workers == 1 }, "initial worker")

	parsed, err := makeflow.ParseString(`
CATEGORY=gen
CORES=1
nums.txt:
	seq 1 50 > nums.txt
CATEGORY=sum
CORES=1
total.txt: nums.txt
	awk '{s+=$1} END {print s}' nums.txt > total.txt
`)
	if err != nil {
		t.Fatal(err)
	}
	adapter := wire.NewFlowAdapter(r.master)
	runner := flow.NewRunner(parsed.Graph, adapter, func(n dag.Node) wq.TaskSpec {
		return wq.TaskSpec{Command: n.Command, Category: n.Category, Resources: n.Resources}
	})
	done := make(chan struct{})
	runner.OnAllDone(func() { close(done) })

	dir := t.TempDir()
	oldWD, _ := os.Getwd()
	os.Chdir(dir)
	defer os.Chdir(oldWD)

	runner.Start()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("workflow timed out: %+v", r.master.Stats())
	}
	if err := runner.Err(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("total.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(data)); got != "1275" {
		t.Errorf("total.txt = %q, want 1275 (sum 1..50)", got)
	}
}

// TestOperatorConcurrentObserve holds the operator to the monitor's
// concurrency contract: the wire master delivers completions on its
// connection goroutines while the control loop checkpoints and plans
// from the monitor, and the single-goroutine monitor is only safe
// because the operator serializes those calls. Run it under -race.
func TestOperatorConcurrentObserve(t *testing.T) {
	master, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	op, err := New(Config{
		Client:      &kubeclient.Client{},
		Master:      master,
		WorkerImage: "wq-worker:latest",
		StatePath:   filepath.Join(t.TempDir(), "state.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	const conns, perConn = 8, 100
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perConn; j++ {
				op.onTaskComplete(wire.Result{Task: wire.Task{
					Category:  fmt.Sprintf("cat%d", i%2),
					Resources: resources.New(1, 256, 1),
					Wall:      time.Duration(j+1) * time.Millisecond,
				}})
			}
		}(i)
	}
	readsDone := make(chan struct{})
	go func() {
		defer close(readsDone)
		for k := 0; k < 50; k++ {
			snap := op.Monitor()
			snap.EstimateResources("cat0")
			snap.EstimateExecTime("cat1")
			op.saveState()
		}
	}()
	wg.Wait()
	<-readsDone
	mon := op.Monitor()
	count := func(cat string) int {
		for _, c := range mon.ExportState().Categories {
			if c.Category == cat {
				return c.Count
			}
		}
		return 0
	}
	n0, n1 := count("cat0"), count("cat1")
	if n0+n1 != conns*perConn {
		t.Fatalf("counts = %d + %d, want %d", n0, n1, conns*perConn)
	}
	// The snapshot is a copy: later completions do not reach it.
	op.onTaskComplete(wire.Result{Task: wire.Task{Category: "cat0", Resources: resources.New(1, 256, 1)}})
	if n := count("cat0"); n != n0 {
		t.Fatalf("snapshot count moved from %d to %d", n0, n)
	}
}
