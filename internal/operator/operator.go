// Package operator is the deployable form of HTA: the same
// well-informed feedback loop as internal/core, but actuating a real
// Kubernetes API (through internal/kubeclient) and a real TCP Work
// Queue master (internal/wq/wire) instead of the simulator. It is
// what the paper's "Makeflow Kubernetes Operator" (§V, Fig. 8) runs
// as: an informer watch over worker pods feeding the initialization-
// time tracker, a resource provisioner evaluating Algorithm 1 each
// cycle, and pod create/drain/delete actuation.
//
// The operator is exercised end-to-end in its tests against
// kubeclient/kubetest's fake API server with real TCP workers
// executing real shell commands.
package operator

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hta/internal/core"
	"hta/internal/kubeclient"
	"hta/internal/monitor"
	"hta/internal/resources"
	"hta/internal/wq"
	"hta/internal/wq/wire"
)

// Config wires the operator to its cluster and master.
type Config struct {
	// Client reaches the Kubernetes API (required).
	Client *kubeclient.Client
	// Master is the TCP Work Queue master tasks are submitted to
	// (required).
	Master *wire.Master
	// MasterAddr is advertised to worker pods via the WQ_MASTER
	// environment variable (default: Master.Addr()).
	MasterAddr string
	// WorkerImage is the worker container image (required).
	WorkerImage string
	// WorkerResources is the per-worker pod request and advertised
	// capacity (default 3 cores / 12 GiB).
	WorkerResources resources.Vector
	// Labels select the operator's worker pods (default
	// app=wq-worker, managed-by=hta).
	Labels map[string]string
	// InitialWorkers is the warm-up fleet size (default 3).
	InitialWorkers int
	// MinWorkers is the floor kept when idle (default 0).
	MinWorkers int
	// MaxWorkers is the pool quota (default 20).
	MaxWorkers int
	// Cycle is the planning interval when the system is balanced
	// (default 30 s; tests use much shorter).
	Cycle time.Duration
	// InitTimeFallback seeds the initialization-time estimate before
	// the first measured cold start (default 160 s).
	InitTimeFallback time.Duration
	// StatePath, when set, persists the operator's learned state —
	// per-category resource estimates, the measured initialization
	// time, and the pod-name sequence — as JSON at this path, and
	// reloads it on startup. A restarted operator then resumes with
	// its estimates intact instead of re-learning every category from
	// scratch. Checkpoints are written atomically (temp file + rename),
	// so a crash mid-write leaves the previous checkpoint readable.
	StatePath string
	// Logf, when set, receives operator activity lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if c.Client == nil || c.Master == nil {
		return c, fmt.Errorf("operator: Client and Master are required")
	}
	if c.WorkerImage == "" {
		return c, fmt.Errorf("operator: WorkerImage is required")
	}
	if c.MasterAddr == "" {
		c.MasterAddr = c.Master.Addr()
	}
	if c.WorkerResources.IsZero() {
		c.WorkerResources = resources.New(3, 12288, 100000)
	}
	if c.Labels == nil {
		c.Labels = map[string]string{"app": "wq-worker", "managed-by": "hta"}
	}
	if c.InitialWorkers == 0 {
		c.InitialWorkers = 3
	}
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 20
	}
	if c.Cycle == 0 {
		c.Cycle = 30 * time.Second
	}
	if c.InitTimeFallback == 0 {
		c.InitTimeFallback = 160 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

type podState struct {
	createdAt time.Time
	running   bool
	draining  bool
}

// Operator runs the feedback loop.
type Operator struct {
	cfg Config

	// monMu serializes every use of mon: wire completions call Observe
	// from the master's connection goroutines, while the Run loop
	// checkpoints the monitor and plans from it. The monitor itself is
	// single-goroutine.
	monMu sync.Mutex
	mon   *monitor.Monitor

	// planner carries Algorithm 1's reusable scratch state; it is
	// touched only by resize, which runs on the Run loop goroutine.
	planner core.Planner

	mu       sync.Mutex
	pods     map[string]*podState
	seq      int
	initTime time.Duration
	measured bool
}

// New builds an operator; call Run to start it.
func New(cfg Config) (*Operator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	o := &Operator{
		cfg:  cfg,
		mon:  monitor.New(),
		pods: make(map[string]*podState),
	}
	if err := o.loadState(); err != nil {
		return nil, err
	}
	cfg.Master.OnComplete(o.onTaskComplete)
	return o, nil
}

// Monitor returns a snapshot of the per-category estimator: a private
// copy the caller may read while completions keep arriving.
func (o *Operator) Monitor() *monitor.Monitor {
	snap := monitor.New()
	snap.ImportState(o.monitorState())
	return snap
}

// monitorState exports the monitor's learned state under its lock.
func (o *Operator) monitorState() monitor.State {
	o.monMu.Lock()
	defer o.monMu.Unlock()
	return o.mon.ExportState()
}

// InitTime returns the current initialization-time estimate and
// whether it was measured from a live cold start.
func (o *Operator) InitTime() (time.Duration, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.measured {
		return o.cfg.InitTimeFallback, false
	}
	return o.initTime, true
}

// onTaskComplete feeds the resource monitor: wall time plus the
// worker's rusage-measured CPU when reported, falling back to the
// declared requirement or allocation for the other dimensions.
func (o *Operator) onTaskComplete(r wire.Result) {
	measured := r.Task.Resources
	if measured.IsZero() {
		measured = r.Task.Allocated
	}
	if r.Task.MeasuredCPUMilli > 0 {
		// Prefer the worker's rusage measurement for CPU.
		measured.MilliCPU = r.Task.MeasuredCPUMilli
	}
	o.monMu.Lock()
	o.mon.Observe(r.Task.Category, measured, r.Task.Wall)
	o.monMu.Unlock()
}

// Run executes the control loop until ctx is canceled. It returns
// ctx.Err() on normal shutdown.
func (o *Operator) Run(ctx context.Context) error {
	events, err := o.cfg.Client.WatchPods(ctx, o.cfg.Labels)
	if err != nil {
		return err
	}
	// Adopt any pods that already exist (operator restart).
	existing, err := o.cfg.Client.ListPods(ctx, o.cfg.Labels)
	if err != nil {
		return err
	}
	o.mu.Lock()
	for _, p := range existing {
		o.pods[p.Metadata.Name] = &podState{
			createdAt: p.Metadata.Created(),
			running:   p.Status.Phase == kubeclient.PodRunning,
		}
		o.bumpSeqLocked(p.Metadata.Name)
	}
	warm := len(o.pods)
	o.mu.Unlock()

	for i := warm; i < o.cfg.InitialWorkers; i++ {
		if err := o.createWorkerPod(ctx); err != nil {
			return err
		}
	}

	timer := time.NewTimer(o.cfg.Cycle)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev, ok := <-events:
			if !ok {
				// Self-healing: a closed watch (API server restart,
				// dropped connection) is re-established with backoff
				// rather than taking the operator down.
				events, err = o.rewatch(ctx)
				if err != nil {
					return err
				}
				continue
			}
			if o.handlePodEvent(ev) {
				// A fresh init-time measurement is worth checkpointing
				// immediately — it is the scarcest signal the operator
				// learns.
				o.saveState()
			}
		case <-timer.C:
			next := o.resize(ctx)
			o.saveState()
			timer.Reset(next)
		}
	}
}

// rewatch re-establishes the pod watch with jittered exponential
// backoff, then resynchronizes the pod roster by listing — events
// missed while the watch was down (deletions in particular) would
// otherwise leave phantom entries in o.pods. It returns only on
// success or context cancellation.
func (o *Operator) rewatch(ctx context.Context) (<-chan kubeclient.PodEvent, error) {
	bo := wire.NewBackoff(200*time.Millisecond, 10*time.Second)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		events, err := o.cfg.Client.WatchPods(ctx, o.cfg.Labels)
		if err == nil {
			o.resync(ctx)
			o.cfg.Logf("operator: pod watch re-established after %d retries", bo.Attempts())
			return events, nil
		}
		d := bo.Next()
		o.cfg.Logf("operator: pod watch closed; retrying in %v: %v", d.Round(time.Millisecond), err)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
		}
	}
}

// resync reconciles the pod roster with the API server's current
// list: pods created while the watch was down are adopted, pods
// deleted meanwhile are dropped.
func (o *Operator) resync(ctx context.Context) {
	existing, err := o.cfg.Client.ListPods(ctx, o.cfg.Labels)
	if err != nil {
		o.cfg.Logf("operator: resync list failed: %v", err)
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	seen := make(map[string]bool, len(existing))
	for _, p := range existing {
		name := p.Metadata.Name
		seen[name] = true
		st, ok := o.pods[name]
		if !ok {
			st = &podState{createdAt: p.Metadata.Created()}
			o.pods[name] = st
			o.bumpSeqLocked(name)
		}
		if p.Status.Phase == kubeclient.PodRunning {
			st.running = true
		}
	}
	for name := range o.pods {
		if !seen[name] {
			delete(o.pods, name)
		}
	}
}

// bumpSeqLocked keeps the name sequence ahead of adopted pods.
func (o *Operator) bumpSeqLocked(name string) {
	var n int
	if _, err := fmt.Sscanf(name, "wq-worker-%d", &n); err == nil && n > o.seq {
		o.seq = n
	}
}

// handlePodEvent updates the roster from one watch event and reports
// whether a new init-time measurement was taken (worth checkpointing).
func (o *Operator) handlePodEvent(ev kubeclient.PodEvent) bool {
	name := ev.Pod.Metadata.Name
	o.mu.Lock()
	defer o.mu.Unlock()
	st, mine := o.pods[name]
	switch ev.Type {
	case kubeclient.WatchAdded:
		if !mine {
			o.pods[name] = &podState{createdAt: time.Now()}
			o.bumpSeqLocked(name)
		}
	case kubeclient.WatchModified:
		if mine && !st.running && ev.Pod.Status.Phase == kubeclient.PodRunning {
			st.running = true
			// Cold-start measurement: creation request → Running.
			d := time.Since(st.createdAt)
			if d > 0 {
				o.initTime = d
				o.measured = true
				o.cfg.Logf("operator: measured init time %v from %s", d.Round(time.Millisecond), name)
				return true
			}
		}
	case kubeclient.WatchDeleted:
		if mine {
			delete(o.pods, name)
		}
	}
	return false
}

func (o *Operator) createWorkerPod(ctx context.Context) error {
	o.mu.Lock()
	o.seq++
	name := fmt.Sprintf("wq-worker-%d", o.seq)
	o.pods[name] = &podState{createdAt: time.Now()}
	o.mu.Unlock()

	pod := kubeclient.Pod{
		Metadata: kubeclient.ObjectMeta{Name: name, Labels: o.cfg.Labels},
		Spec: kubeclient.PodSpec{
			RestartPolicy: "Never",
			Containers: []kubeclient.Container{{
				Name:  "worker",
				Image: o.cfg.WorkerImage,
				Env: []kubeclient.EnvVar{
					{Name: "WQ_MASTER", Value: o.cfg.MasterAddr},
					{Name: "WQ_WORKER_ID", Value: name},
				},
				Resources: kubeclient.ResourceRequirements{
					Requests: kubeclient.ResourceList{
						"cpu":    kubeclient.FormatCPUMilli(o.cfg.WorkerResources.MilliCPU),
						"memory": kubeclient.FormatMemoryMB(o.cfg.WorkerResources.MemoryMB),
					},
				},
			}},
		},
	}
	if _, err := o.cfg.Client.CreatePod(ctx, pod); err != nil {
		o.mu.Lock()
		delete(o.pods, name)
		o.mu.Unlock()
		return fmt.Errorf("operator: create %s: %w", name, err)
	}
	o.cfg.Logf("operator: created worker pod %s", name)
	return nil
}

// resize runs one Algorithm 1 evaluation and actuates the decision,
// returning the delay until the next cycle.
func (o *Operator) resize(ctx context.Context) time.Duration {
	o.reapDrained(ctx)

	details := o.cfg.Master.WorkerDetails()
	var workers []core.WorkerInfo
	draining := make(map[string]bool)
	for _, d := range details {
		if d.Draining {
			draining[d.ID] = true
			continue
		}
		workers = append(workers, core.WorkerInfo{ID: d.ID, Capacity: d.Capacity})
	}
	initTime, _ := o.InitTime()
	dec := o.planner.EstimateScale(core.EstimateInput{
		Now:            time.Now(),
		InitTime:       initTime,
		DefaultCycle:   o.cfg.Cycle,
		Running:        convertTasks(o.cfg.Master.RunningTasks()),
		Waiting:        convertTasks(o.cfg.Master.WaitingTasks()),
		Estimator:      o.Monitor(),
		Workers:        workers,
		WorkerTemplate: o.cfg.WorkerResources,
	})

	o.mu.Lock()
	connected := make(map[string]bool, len(details))
	for _, d := range details {
		connected[d.ID] = true
	}
	creating := 0
	for name, st := range o.pods {
		if !st.draining && !connected[name] {
			creating++
		}
	}
	total := len(o.pods)
	o.mu.Unlock()

	switch {
	case dec.ScaleChange > 0:
		n := dec.ScaleChange - creating
		if room := o.cfg.MaxWorkers - total; n > room {
			n = room
		}
		for i := 0; i < n; i++ {
			if err := o.createWorkerPod(ctx); err != nil {
				o.cfg.Logf("operator: %v", err)
				break
			}
		}
	case dec.ScaleChange < 0:
		o.drainIdle(-dec.ScaleChange, details)
	}
	next := dec.NextCycle
	if next < 100*time.Millisecond {
		next = o.cfg.Cycle
	}
	return next
}

// drainIdle drains up to n idle workers, respecting the floor.
func (o *Operator) drainIdle(n int, details []wire.WorkerDetail) {
	o.mu.Lock()
	headroom := len(o.pods) - o.cfg.MinWorkers
	o.mu.Unlock()
	if n > headroom {
		n = headroom
	}
	for _, d := range details {
		if n <= 0 {
			return
		}
		if d.Draining || d.Running > 0 {
			continue
		}
		if err := o.cfg.Master.Drain(d.ID); err != nil {
			continue
		}
		o.mu.Lock()
		if st, ok := o.pods[d.ID]; ok {
			st.draining = true
		}
		o.mu.Unlock()
		o.cfg.Logf("operator: draining worker %s", d.ID)
		n--
	}
}

// reapDrained deletes pods whose drained workers have disconnected.
func (o *Operator) reapDrained(ctx context.Context) {
	connected := make(map[string]bool)
	for _, id := range o.cfg.Master.Workers() {
		connected[id] = true
	}
	o.mu.Lock()
	var victims []string
	for name, st := range o.pods {
		if st.draining && !connected[name] {
			victims = append(victims, name)
		}
	}
	o.mu.Unlock()
	for _, name := range victims {
		if err := o.cfg.Client.DeletePod(ctx, name); err == nil {
			o.cfg.Logf("operator: deleted drained pod %s", name)
		}
		o.mu.Lock()
		delete(o.pods, name)
		o.mu.Unlock()
	}
}

// convertTasks maps wire tasks into the Algorithm 1 task view.
func convertTasks(in []wire.Task) []wq.Task {
	out := make([]wq.Task, 0, len(in))
	for _, t := range in {
		out = append(out, wq.Task{
			ID: t.ID,
			TaskSpec: wq.TaskSpec{
				Category:  t.Category,
				Resources: t.Resources,
			},
			WorkerID:  t.WorkerID,
			StartedAt: t.StartedAt,
			Allocated: t.Allocated,
		})
	}
	return out
}
