package kubesim

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func newTestCluster(t *testing.T, cfg Config) (*simclock.Engine, *Cluster) {
	t.Helper()
	eng := simclock.NewEngine(t0)
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := NewCluster(eng, cfg)
	t.Cleanup(c.Stop)
	return eng, c
}

func smallPod(name string) PodSpec {
	return PodSpec{
		Name:      name,
		Image:     "wq-worker",
		Resources: resources.New(1, 1024, 100),
		Labels:    map[string]string{"app": "worker"},
	}
}

// watchRecord is one watch notification as a client sees it. Node
// notifications leave NodeName and Phase empty.
type watchRecord struct {
	At       time.Time
	Type     WatchEventType
	Reason   string
	Object   string // "pod/NAME" or "node/NAME"
	NodeName string
	Phase    PodPhase
}

// watchTrace is the ordered log of every pod and node watch
// notification a cluster delivers.
type watchTrace struct{ records []watchRecord }

// recordWatches subscribes a trace to c's pod and node watches.
func recordWatches(c *Cluster) *watchTrace {
	w := &watchTrace{}
	c.OnPod(func(ev PodWatchEvent) {
		w.records = append(w.records, watchRecord{
			At: c.eng.Now(), Type: ev.Type, Reason: ev.Reason,
			Object: "pod/" + ev.Pod.Name, NodeName: ev.Pod.NodeName, Phase: ev.Pod.Phase,
		})
	})
	c.OnNode(func(ev NodeWatchEvent) {
		w.records = append(w.records, watchRecord{At: c.eng.Now(), Type: ev.Type, Object: "node/" + ev.Node.Name})
	})
	return w
}

// count returns how many records carry the type and reason and
// concern the object; an empty object matches every object.
func (w *watchTrace) count(typ WatchEventType, reason, object string) int {
	n := 0
	for _, r := range w.records {
		if r.Type == typ && r.Reason == reason && (object == "" || r.Object == object) {
			n++
		}
	}
	return n
}

func TestInitialNodes(t *testing.T) {
	_, c := newTestCluster(t, Config{InitialNodes: 3})
	if got := c.ReadyNodes(); got != 3 {
		t.Fatalf("ReadyNodes = %d, want 3", got)
	}
	if got := c.TotalAllocatable(); got != resources.New(9, 36864, 300000) {
		t.Errorf("TotalAllocatable = %v", got)
	}
}

func TestPodScheduleAndRun(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	if _, err := c.CreatePod(smallPod("w1")); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(30 * time.Second)
	p, ok := c.GetPod("w1")
	if !ok {
		t.Fatal("pod vanished")
	}
	if p.Phase != PodRunning {
		t.Fatalf("phase = %s, want Running", p.Phase)
	}
	if p.NodeName == "" || p.ScheduledAt.IsZero() || p.RunningAt.IsZero() {
		t.Errorf("lifecycle fields not set: %+v", p)
	}
	if !p.PulledImage {
		t.Error("first pod on node should have pulled the image")
	}
	if p.UnschedulableSeen {
		t.Error("pod fit immediately; no FailedScheduling expected")
	}
	// Startup = schedule (≤1s) + pull (700MB @ 100MB/s ≈ 7s ± 5%) + start 1s.
	startup := p.RunningAt.Sub(p.CreatedAt)
	if startup < 7*time.Second || startup > 12*time.Second {
		t.Errorf("startup took %v, want ≈8-9s", startup)
	}
}

func TestImageCachedSecondPod(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	c.CreatePod(smallPod("w1"))
	eng.RunFor(30 * time.Second)
	c.CreatePod(smallPod("w2"))
	eng.RunFor(10 * time.Second)
	p, _ := c.GetPod("w2")
	if p.Phase != PodRunning {
		t.Fatalf("w2 phase = %s", p.Phase)
	}
	if p.PulledImage {
		t.Error("second pod on node should reuse cached image")
	}
	// Startup bounded by schedule interval + start delay.
	if startup := p.RunningAt.Sub(p.CreatedAt); startup > 3*time.Second {
		t.Errorf("cached startup = %v, want ≤3s", startup)
	}
}

func TestConcurrentPullsDeduplicated(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	w := recordWatches(c)
	c.CreatePod(smallPod("w1"))
	c.CreatePod(smallPod("w2"))
	eng.RunFor(30 * time.Second)
	if pulls := w.count(Modified, ReasonPulling, ""); pulls != 1 {
		t.Errorf("Pulling events = %d, want 1 (deduplicated)", pulls)
	}
	for _, name := range []string{"w1", "w2"} {
		if p, _ := c.GetPod(name); p.Phase != PodRunning {
			t.Errorf("%s phase = %s", name, p.Phase)
		}
	}
}

func TestUnschedulableTriggersScaleUp(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1, MaxNodes: 5})
	w := recordWatches(c)
	// Node-sized pods; the single node takes one, the second must wait
	// for provisioning.
	spec := smallPod("big1")
	spec.Resources = c.Config().NodeAllocatable
	c.CreatePod(spec)
	spec.Name = "big2"
	c.CreatePod(spec)
	eng.RunFor(400 * time.Second)

	p2, _ := c.GetPod("big2")
	if p2.Phase != PodRunning {
		t.Fatalf("big2 phase = %s", p2.Phase)
	}
	if !p2.UnschedulableSeen {
		t.Error("big2 should have seen FailedScheduling")
	}
	if c.ReadyNodes() != 2 {
		t.Errorf("ReadyNodes = %d, want 2", c.ReadyNodes())
	}
	// Initialization time ≈ autoscaler delay (≤10s) + provisioning
	// (~150s) + pull (~7s) + start (1s): the paper's ≈157s regime.
	init := p2.RunningAt.Sub(p2.CreatedAt)
	if init < 120*time.Second || init > 200*time.Second {
		t.Errorf("init time = %v, want ≈160s", init)
	}
	failed := w.count(Modified, ReasonFailedScheduling, "pod/big2")
	added := w.count(Added, "", "node/node-2")
	if failed != 1 || added != 1 {
		t.Errorf("watch events: FailedScheduling for big2 = %d, node-2 Added = %d; want 1 each", failed, added)
	}
}

func TestMaxNodesQuota(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1, MaxNodes: 3})
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		spec := smallPod(n)
		spec.Resources = c.Config().NodeAllocatable
		c.CreatePod(spec)
	}
	eng.RunFor(20 * time.Minute)
	if got := c.ReadyNodes(); got != 3 {
		t.Errorf("ReadyNodes = %d, want quota 3", got)
	}
	running := 0
	for _, p := range c.ListPods(nil) {
		if p.Phase == PodRunning {
			running++
		}
	}
	if running != 3 {
		t.Errorf("running pods = %d, want 3", running)
	}
}

func TestScaleDownRemovesEmptyNodes(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1, MaxNodes: 4, MinNodes: 1, ScaleDownDelay: 2 * time.Minute})
	spec := smallPod("big")
	spec.Resources = c.Config().NodeAllocatable
	c.CreatePod(spec)
	spec.Name = "big2"
	c.CreatePod(spec)
	eng.RunFor(300 * time.Second)
	if c.ReadyNodes() != 2 {
		t.Fatalf("ReadyNodes = %d, want 2 after scale-up", c.ReadyNodes())
	}
	// Free both nodes; after the delay the cluster shrinks to MinNodes.
	c.DeletePod("big")
	c.DeletePod("big2")
	eng.RunFor(5 * time.Minute)
	if got := c.ReadyNodes(); got != 1 {
		t.Errorf("ReadyNodes = %d, want MinNodes 1", got)
	}
}

func TestNodeNotRemovedWhileOccupied(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 2, MinNodes: 1, ScaleDownDelay: time.Minute})
	c.CreatePod(smallPod("w1"))
	eng.RunFor(10 * time.Minute)
	p, _ := c.GetPod("w1")
	if p.Phase != PodRunning {
		t.Fatalf("w1 phase = %s", p.Phase)
	}
	// The empty node was removed, the occupied one kept.
	if got := c.ReadyNodes(); got != 1 {
		t.Errorf("ReadyNodes = %d, want 1", got)
	}
	if _, ok := c.GetPod("w1"); !ok {
		t.Error("pod evicted")
	}
}

func TestDeletePodFreesNodeImmediately(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	spec := smallPod("big")
	spec.Resources = c.Config().NodeAllocatable
	c.CreatePod(spec)
	eng.RunFor(30 * time.Second)
	c.DeletePod("big")
	spec.Name = "big2"
	c.CreatePod(spec)
	eng.RunFor(30 * time.Second)
	p, _ := c.GetPod("big2")
	if p.Phase != PodRunning {
		t.Errorf("big2 phase = %s, want Running on freed node", p.Phase)
	}
	if p.UnschedulableSeen {
		t.Error("big2 should have been schedulable immediately")
	}
}

func TestMarkPodSucceeded(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	c.CreatePod(smallPod("w1"))
	eng.RunFor(30 * time.Second)
	if err := c.MarkPodSucceeded("w1"); err != nil {
		t.Fatal(err)
	}
	p, _ := c.GetPod("w1")
	if p.Phase != PodSucceeded || p.FinishedAt.IsZero() {
		t.Errorf("pod = %+v", p)
	}
	if err := c.MarkPodSucceeded("w1"); err == nil {
		t.Error("double MarkPodSucceeded should fail")
	}
	if err := c.MarkPodSucceeded("nope"); err == nil {
		t.Error("unknown pod should fail")
	}
}

func TestCreatePodValidation(t *testing.T) {
	_, c := newTestCluster(t, Config{})
	if _, err := c.CreatePod(PodSpec{Name: ""}); err == nil {
		t.Error("empty name should fail")
	}
	c.CreatePod(smallPod("dup"))
	if _, err := c.CreatePod(smallPod("dup")); err == nil {
		t.Error("duplicate should fail")
	}
	bad := smallPod("neg")
	bad.Resources = resources.Vector{MilliCPU: -1}
	if _, err := c.CreatePod(bad); err == nil {
		t.Error("negative resources should fail")
	}
	if err := c.DeletePod("nope"); err == nil {
		t.Error("deleting unknown pod should fail")
	}
}

func TestPodWatchEventSequence(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	var reasons []string
	c.OnPod(func(ev PodWatchEvent) {
		if ev.Pod.Name != "w1" {
			return
		}
		key := string(ev.Type)
		if ev.Reason != "" {
			key += "/" + ev.Reason
		}
		reasons = append(reasons, key)
	})
	c.CreatePod(smallPod("w1"))
	eng.RunFor(30 * time.Second)
	c.DeletePod("w1")
	want := []string{"ADDED", "MODIFIED/Scheduled", "MODIFIED/Pulling", "MODIFIED/Pulled", "MODIFIED/Started", "DELETED/Killing"}
	if strings.Join(reasons, ",") != strings.Join(want, ",") {
		t.Errorf("event sequence = %v, want %v", reasons, want)
	}
}

func TestStatefulSetStickyIdentity(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 2})
	err := c.CreateStatefulSet(StatefulSet{
		Name:     "wq-master",
		Replicas: 1,
		Template: PodSpec{Image: "wq-master", Resources: resources.New(1, 2048, 1000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(30 * time.Second)
	p, ok := c.GetPod("wq-master-0")
	if !ok || p.Phase != PodRunning {
		t.Fatalf("master pod = %+v ok=%v", p, ok)
	}
	if p.Labels["statefulset"] != "wq-master" {
		t.Errorf("labels = %v", p.Labels)
	}
	// Kill it; the controller recreates the same identity.
	c.DeletePod("wq-master-0")
	eng.RunFor(30 * time.Second)
	p, ok = c.GetPod("wq-master-0")
	if !ok || p.Phase != PodRunning {
		t.Errorf("master not recreated: %+v ok=%v", p, ok)
	}
	if err := c.DeleteStatefulSet("wq-master"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetPod("wq-master-0"); ok {
		t.Error("member pod not deleted with the set")
	}
	if err := c.DeleteStatefulSet("wq-master"); err == nil {
		t.Error("double delete should fail")
	}
}

func TestServiceStore(t *testing.T) {
	_, c := newTestCluster(t, Config{})
	if err := c.CreateService(Service{Name: "master", Selector: map[string]string{"app": "master"}, Port: 9123}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateService(Service{Name: "master"}); err == nil {
		t.Error("duplicate service should fail")
	}
	if _, ok := c.GetService("master"); !ok {
		t.Error("service not stored")
	}
	if err := c.CreateService(Service{}); err == nil {
		t.Error("empty name should fail")
	}
}

func TestUsageMetrics(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 2})
	spec := smallPod("w1")
	spec.Resources = resources.New(2, 1024, 100)
	spec.Usage = func() resources.Vector { return resources.New(1, 512, 0) }
	if got := c.PodUsage("w1"); got != resources.Zero {
		t.Errorf("PodUsage of an unknown pod = %v, want zero", got)
	}
	c.CreatePod(spec)
	if got := c.PodUsage("w1"); got != resources.Zero {
		t.Errorf("PodUsage while Pending = %v, want zero", got)
	}
	eng.RunFor(30 * time.Second)
	if got := c.PodUsage("w1"); got != resources.New(1, 512, 0) {
		t.Errorf("PodUsage = %v", got)
	}
	if err := c.MarkPodSucceeded("w1"); err != nil {
		t.Fatal(err)
	}
	if got := c.PodUsage("w1"); got != resources.Zero {
		t.Errorf("PodUsage after exit = %v, want zero", got)
	}
}

func TestSetPodUsage(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	c.CreatePod(smallPod("w1"))
	eng.RunFor(30 * time.Second)
	if err := c.SetPodUsage("w1", func() resources.Vector { return resources.Cores(0.9) }); err != nil {
		t.Fatal(err)
	}
	if got := c.PodUsage("w1"); got != resources.Cores(0.9) {
		t.Errorf("PodUsage = %v, want 0.9 cores", got)
	}
	if err := c.SetPodUsage("nope", nil); err == nil {
		t.Error("unknown pod should fail")
	}
}

func TestWorkerSetScalesUpAndDown(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 5})
	ws, err := NewWorkerSet(c, "workers", smallPod(""), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()
	eng.RunFor(30 * time.Second)
	if got := len(ws.LivePods()); got != 3 {
		t.Fatalf("live pods = %d, want 3", got)
	}
	ws.SetReplicas(5)
	eng.RunFor(30 * time.Second)
	if got := len(ws.LivePods()); got != 5 {
		t.Fatalf("live pods = %d, want 5", got)
	}
	ws.SetReplicas(2)
	eng.RunFor(time.Second)
	if got := len(ws.LivePods()); got != 2 {
		t.Fatalf("live pods = %d after scale-down, want 2", got)
	}
	if ws.Replicas() != 2 {
		t.Errorf("Replicas = %d", ws.Replicas())
	}
}

func TestWorkerSetDeletionPrefersPending(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1, MaxNodes: 1})
	spec := smallPod("")
	spec.Resources = c.Config().NodeAllocatable // one per node; only 1 can run
	ws, err := NewWorkerSet(c, "workers", spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()
	eng.RunFor(30 * time.Second)
	pods := ws.LivePods()
	if len(pods) != 2 {
		t.Fatalf("live = %d", len(pods))
	}
	var runningName string
	for _, p := range pods {
		if p.Phase == PodRunning {
			runningName = p.Name
		}
	}
	if runningName == "" {
		t.Fatal("no running pod")
	}
	ws.SetReplicas(1)
	eng.RunFor(time.Second)
	left := ws.LivePods()
	if len(left) != 1 || left[0].Name != runningName {
		t.Errorf("survivor = %v, want running pod %s", left, runningName)
	}
}

func TestWorkerSetGarbageCollectsSucceeded(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 3})
	ws, err := NewWorkerSet(c, "workers", smallPod(""), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()
	eng.RunFor(30 * time.Second)
	pods := ws.LivePods()
	c.MarkPodSucceeded(pods[0].Name)
	eng.RunFor(10 * time.Second)
	// GC removed the succeeded pod and the set replaced it.
	if _, ok := c.GetPod(pods[0].Name); ok {
		t.Error("succeeded pod not garbage-collected")
	}
	if got := len(ws.LivePods()); got != 2 {
		t.Errorf("live = %d, want 2", got)
	}
}

func TestNegativeReplicasClamped(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	ws, err := NewWorkerSet(c, "workers", smallPod(""), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Stop()
	eng.RunFor(20 * time.Second)
	ws.SetReplicas(-5)
	eng.RunFor(time.Second)
	if got := len(ws.LivePods()); got != 0 {
		t.Errorf("live = %d, want 0", got)
	}
}

func TestProvisioningLatencyDistribution(t *testing.T) {
	// Ten probe rounds: create an unsatisfiable pod, measure creation
	// → Running; the distribution must center near the configured
	// provisioning mean (Fig. 6's experiment).
	eng, c := newTestCluster(t, Config{InitialNodes: 1, MaxNodes: 30, Seed: 7})
	type probe struct {
		name string
		dur  time.Duration
	}
	var probes []probe
	node := c.Config().NodeAllocatable
	for i := 0; i < 10; i++ {
		name := "probe" + string(rune('a'+i))
		spec := PodSpec{Name: name, Image: "wq-worker", Resources: node}
		c.CreatePod(spec)
		eng.RunFor(6 * time.Minute)
		p, _ := c.GetPod(name)
		if p.Phase != PodRunning {
			t.Fatalf("probe %s phase = %s", name, p.Phase)
		}
		if i == 0 {
			// First probe fits the initial empty node: not an init
			// measurement.
			continue
		}
		probes = append(probes, probe{name, p.RunningAt.Sub(p.CreatedAt)})
	}
	var sum time.Duration
	for _, pr := range probes {
		if pr.dur < 100*time.Second || pr.dur > 220*time.Second {
			t.Errorf("probe %s init = %v, out of plausible range", pr.name, pr.dur)
		}
		sum += pr.dur
	}
	mean := sum / time.Duration(len(probes))
	if mean < 140*time.Second || mean > 185*time.Second {
		t.Errorf("mean init = %v, want ≈160s", mean)
	}
}

func TestStopQuiescesEngine(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	c.CreatePod(smallPod("w1"))
	eng.RunFor(30 * time.Second)
	c.Stop()
	eng.Run() // must terminate: no live tickers remain
	if p, _ := c.GetPod("w1"); p.Phase != PodRunning {
		t.Errorf("pod disturbed by Stop: %s", p.Phase)
	}
}

func TestPreemptNodeKillsPodsAndRemovesNode(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 2, MaxNodes: 4})
	c.CreatePod(smallPod("w1"))
	c.CreatePod(smallPod("w2"))
	eng.RunFor(30 * time.Second)
	p1, _ := c.GetPod("w1")
	if p1.Phase != PodRunning {
		t.Fatalf("w1 = %s", p1.Phase)
	}
	w := recordWatches(c)
	if err := c.PreemptNode(p1.NodeName); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetPod("w1"); ok {
		t.Error("pod on failed node still exists")
	}
	found := false
	for _, n := range c.Nodes() {
		if n.Name == p1.NodeName {
			found = true
		}
	}
	if found {
		t.Error("failed node still in fleet")
	}
	// The node's pods die first, then the node: w1 and w2 share it.
	want := []watchRecord{
		{At: eng.Now(), Type: Deleted, Reason: ReasonKilling, Object: "pod/w1", NodeName: p1.NodeName, Phase: PodFailed},
		{At: eng.Now(), Type: Deleted, Reason: ReasonKilling, Object: "pod/w2", NodeName: p1.NodeName, Phase: PodFailed},
		{At: eng.Now(), Type: Deleted, Object: "node/" + p1.NodeName},
	}
	if !slices.Equal(w.records, want) {
		t.Errorf("watch trace of the preemption:\n got  %v\n want %v", w.records, want)
	}
	if err := c.PreemptNode("ghost"); err == nil {
		t.Error("preempting unknown node should error")
	}
}

func TestPreemptNodeTriggersReprovision(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1, MaxNodes: 3})
	spec := smallPod("big")
	spec.Resources = c.Config().NodeAllocatable
	c.CreatePod(spec)
	eng.RunFor(30 * time.Second)
	p, _ := c.GetPod("big")
	node := p.NodeName
	c.PreemptNode(node)
	// The owner recreates the pod (here: the test); the cloud
	// controller provisions a fresh node for it.
	spec.Name = "big2"
	c.CreatePod(spec)
	eng.RunFor(5 * time.Minute)
	p2, _ := c.GetPod("big2")
	if p2.Phase != PodRunning {
		t.Fatalf("replacement pod = %s", p2.Phase)
	}
	if p2.NodeName == node {
		t.Error("replacement landed on the preempted node")
	}
}

// TestRosterOrderWithinWave pins the roster-order trap: nodes sort by
// (CreatedAt, Name) with Name compared as a string, so inside one
// same-instant wave "node-10" precedes "node-4". First-fit follows the
// roster, so the bind order shows it too. Anything that keys node order
// by the numeric sequence fails here, not only in the differential.
func TestRosterOrderWithinWave(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 3, MaxNodes: 16})
	for i := 1; i <= 16; i++ {
		spec := smallPod(fmt.Sprintf("p%02d", i))
		spec.Resources = c.Config().NodeAllocatable
		if _, err := c.CreatePod(spec); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(5 * time.Minute) // one 13-node wave: node-4 … node-16
	want := []string{
		"node-1", "node-2", "node-3",
		"node-10", "node-11", "node-12", "node-13", "node-14", "node-15", "node-16",
		"node-4", "node-5", "node-6", "node-7", "node-8", "node-9",
	}
	if got := c.ReadyNodeNames(); !slices.Equal(got, want) {
		t.Fatalf("ReadyNodeNames =\n  %v, want\n  %v", got, want)
	}
	wave := c.Nodes()[3:]
	for _, n := range wave[1:] {
		if !n.CreatedAt.Equal(wave[0].CreatedAt) {
			t.Fatalf("wave did not arrive at one instant: %s at %v, %s at %v",
				wave[0].Name, wave[0].CreatedAt, n.Name, n.CreatedAt)
		}
	}
	for i, node := range want {
		pod := fmt.Sprintf("p%02d", i+1)
		if p, _ := c.GetPod(pod); p.NodeName != node {
			t.Errorf("%s bound to %q, want %s (UID order onto roster order)", pod, p.NodeName, node)
		}
	}

	// The initial fleet is a same-instant wave as well.
	_, c = newTestCluster(t, Config{InitialNodes: 12, MaxNodes: 12})
	want = []string{
		"node-1", "node-10", "node-11", "node-12",
		"node-2", "node-3", "node-4", "node-5", "node-6", "node-7", "node-8", "node-9",
	}
	if got := c.ReadyNodeNames(); !slices.Equal(got, want) {
		t.Fatalf("initial ReadyNodeNames = %v, want %v", got, want)
	}
}

// TestSchedulerCleanPassZeroAlloc pins the dirty-skip: at quota, with
// unschedulable pods pending and nothing changed since the last sync,
// a scheduler sync plus a cloud-controller sync allocate nothing and
// evaluate no placement predicate.
func TestSchedulerCleanPassZeroAlloc(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 3, MaxNodes: 5})
	for i := 0; i < 8; i++ {
		spec := smallPod(fmt.Sprintf("p%d", i))
		spec.Resources = c.Config().NodeAllocatable
		if _, err := c.CreatePod(spec); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(10 * time.Minute)
	if c.ReadyNodes() != 5 || c.pendingLive != 3 {
		t.Fatalf("fixture: %d nodes, %d pending; want 5 at quota with 3 pending", c.ReadyNodes(), c.pendingLive)
	}
	for _, p := range c.pendingQ {
		if !p.UnschedulableSeen {
			t.Fatalf("fixture: pending pod %s was never marked unschedulable", p.Name)
		}
	}
	w := recordWatches(c)
	probes := c.fitProbes
	allocs := testing.AllocsPerRun(100, func() {
		c.scheduleOnce()
		c.cloudControllerOnce()
	})
	if allocs != 0 {
		t.Errorf("clean scheduler + cloud-controller sync allocates %.1f times, want 0", allocs)
	}
	if c.fitProbes != probes {
		t.Errorf("clean syncs made %d Fits probes, want 0", c.fitProbes-probes)
	}
	if len(w.records) != 0 {
		t.Errorf("clean syncs delivered %d watch events", len(w.records))
	}
}

// TestTemplateValidation pins that both controllers refuse, up front, a
// template no pod could be created from, and create nothing for it.
func TestTemplateValidation(t *testing.T) {
	_, c := newTestCluster(t, Config{})
	bad := smallPod("")
	bad.Resources = resources.Vector{MilliCPU: 1000, MemoryMB: -1}
	if err := c.CreateStatefulSet(StatefulSet{Name: "ss", Replicas: 1, Template: bad}); err == nil {
		t.Error("CreateStatefulSet accepted a negative-resource template")
	}
	if ws, err := NewWorkerSet(c, "ws", bad, 1); err == nil {
		ws.Stop()
		t.Error("NewWorkerSet accepted a negative-resource template")
	}
	if pods := c.ListPods(nil); len(pods) != 0 {
		t.Errorf("refused templates created %d pods", len(pods))
	}
	if err := c.CreateStatefulSet(StatefulSet{Name: "ss", Replicas: 1, Template: smallPod("")}); err != nil {
		t.Errorf("a refused template reserved the set's name: %v", err)
	}
}

// TestCreatePodCopiesLabels pins CreatePod's label isolation: the
// caller's map is copied, so changing it afterwards moves neither the
// stored pod, nor the label index, nor any later watch event. Pods
// created from equal label sets share one frozen copy, which leaves
// the cluster with the last of them.
func TestCreatePodCopiesLabels(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	want := map[string]string{"app": "worker", "tier": "t0"}
	var seen []map[string]string
	c.OnPod(func(ev PodWatchEvent) {
		if ev.Pod.Name == "p" {
			seen = append(seen, maps.Clone(ev.Pod.Labels))
		}
	})
	spec := smallPod("p")
	spec.Labels = maps.Clone(want)
	if _, err := c.CreatePod(spec); err != nil {
		t.Fatal(err)
	}
	spec.Labels["tier"] = "t1"
	spec.Labels["extra"] = "x"
	delete(spec.Labels, "app")

	if got := c.pods["p"].Labels; !maps.Equal(got, want) {
		t.Errorf("stored labels = %v, want %v", got, want)
	}
	if p, _ := c.GetPod("p"); !maps.Equal(p.Labels, want) {
		t.Errorf("GetPod labels = %v, want %v", p.Labels, want)
	}
	for _, sel := range []map[string]string{{"tier": "t0"}, {"app": "worker"}, want} {
		if pods := c.ListPods(sel); len(pods) != 1 || pods[0].Name != "p" {
			t.Errorf("ListPods(%v) = %d pods, want p", sel, len(pods))
		}
	}
	for _, sel := range []map[string]string{{"tier": "t1"}, {"extra": "x"}} {
		if pods := c.ListPods(sel); len(pods) != 0 {
			t.Errorf("ListPods(%v) found %d pods after the caller changed its map", sel, len(pods))
		}
	}
	eng.RunFor(30 * time.Second) // schedule, pull, start
	if err := c.DeletePod("p"); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("%d watch events for p, want 6 (Added, Scheduled, Pulling, Pulled, Started, Deleted)", len(seen))
	}
	for i, l := range seen {
		if !maps.Equal(l, want) {
			t.Errorf("watch event %d labels = %v, want %v", i, l, want)
		}
	}

	// Equal sets share one copy; a different set gets its own.
	for _, name := range []string{"q1", "q2", "r"} {
		spec := smallPod(name)
		spec.Labels = maps.Clone(want)
		if name == "r" {
			spec.Labels["tier"] = "t1"
		}
		if _, err := c.CreatePod(spec); err != nil {
			t.Fatal(err)
		}
	}
	q1, q2, r := c.pods["q1"], c.pods["q2"], c.pods["r"]
	if q1.labels != q2.labels {
		t.Error("pods created from equal label sets hold separate copies")
	}
	if r.labels == q1.labels || r.Labels["tier"] != "t1" {
		t.Errorf("pod r with labels %v shares q1's set %v", r.Labels, q1.Labels)
	}
	if len(c.labelSets) != 2 {
		t.Errorf("%d label sets stored, want 2", len(c.labelSets))
	}
	for _, name := range []string{"q1", "q2", "r"} {
		if err := c.DeletePod(name); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.labelSets) != 0 {
		t.Errorf("%d label sets outlive every pod", len(c.labelSets))
	}
}

// TestPodLifecycleAllocs pins the allocation cost of one pod's whole
// life on a warm node with the image cached: create, bind, start,
// graceful exit and delete. Watch events and the returned pod share
// the stored labels, so what is left is the pod record and its
// container-start event.
func TestPodLifecycleAllocs(t *testing.T) {
	eng, c := newTestCluster(t, Config{InitialNodes: 1})
	spec := smallPod("w")
	lifecycle := func() {
		if _, err := c.CreatePod(spec); err != nil {
			t.Fatal(err)
		}
		c.scheduleOnce()
		eng.RunFor(containerStartDelay)
		if err := c.MarkPodSucceeded("w"); err != nil {
			t.Fatal(err)
		}
		if err := c.DeletePod("w"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreatePod(smallPod("warm")); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(30 * time.Second) // pulls the image
	lifecycle()
	allocs := testing.AllocsPerRun(100, lifecycle)
	t.Logf("%.0f allocations per pod lifecycle", allocs)
	if allocs > 2 {
		t.Errorf("one pod lifecycle allocates %.0f times, want at most 2", allocs)
	}
}
