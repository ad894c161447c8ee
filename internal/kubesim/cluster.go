package kubesim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// Config parameterizes the simulated cluster. Zero values take the
// defaults documented on each field, which are calibrated to the
// paper's GKE testbed (n1-standard-4 nodes with ~3 allocatable cores,
// provisioning latency ≈ N(157.4 s, 4.2 s) including image pull).
type Config struct {
	// InitialNodes is the number of nodes present at start
	// (default 3, the paper's minimum GKE cluster).
	InitialNodes int
	// MinNodes is the floor the cloud controller never scales below
	// (default 1).
	MinNodes int
	// MaxNodes is the resource quota (default 20, the paper's cap).
	MaxNodes int
	// NodeAllocatable is the per-node allocatable resource vector
	// (default 3 cores, 12 GB RAM, 100 GB disk — an n1-standard-4
	// after system reservations, matching the paper's "20 nodes, 60
	// cores").
	NodeAllocatable resources.Vector
	// ProvisionMean/ProvisionStdDev describe machine-reservation
	// latency (defaults 140 s and 4 s; with the control-plane loops,
	// image pull and container start this yields the ≈157 s
	// end-to-end initialization of Fig. 6).
	ProvisionMean   time.Duration
	ProvisionStdDev time.Duration
	// ProvisionMin bounds the truncated-normal sample from below
	// (default 30 s).
	ProvisionMin time.Duration
	// ImageSizesMB maps image names to sizes; unknown images use
	// DefaultImageSizeMB.
	ImageSizesMB map[string]float64
	// DefaultImageSizeMB is used for unlisted images (default 700).
	DefaultImageSizeMB float64
	// ImagePullMBps is the node's registry bandwidth (default 100).
	ImagePullMBps float64
	// ContainerStartDelay is the time from image-present to Running
	// (default 1 s).
	ContainerStartDelay time.Duration
	// PullBackoffBase/PullBackoffMax bound the kubelet's exponential
	// backoff between failed image-pull attempts (defaults 10 s and
	// 5 min, the kubelet's image backoff).
	PullBackoffBase time.Duration
	PullBackoffMax  time.Duration
	// SchedulerInterval is the binding loop period (default 1 s).
	SchedulerInterval time.Duration
	// AutoscalerInterval is the cloud-controller loop period
	// (default 10 s); scale-ups are batched at this granularity.
	AutoscalerInterval time.Duration
	// ScaleDownDelay is how long a node must stay empty before the
	// cloud controller removes it (default 10 min, GKE's default).
	ScaleDownDelay time.Duration
	// Seed drives all stochastic latencies.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.InitialNodes == 0 {
		c.InitialNodes = 3
	}
	if c.MinNodes == 0 {
		c.MinNodes = 1
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 20
	}
	if c.NodeAllocatable.IsZero() {
		c.NodeAllocatable = resources.New(3, 12288, 100000)
	}
	if c.ProvisionMean == 0 {
		c.ProvisionMean = 140 * time.Second
	}
	if c.ProvisionStdDev == 0 {
		c.ProvisionStdDev = 4 * time.Second
	}
	if c.ProvisionMin == 0 {
		c.ProvisionMin = 30 * time.Second
	}
	if c.DefaultImageSizeMB == 0 {
		c.DefaultImageSizeMB = 700
	}
	if c.ImagePullMBps == 0 {
		c.ImagePullMBps = 100
	}
	if c.ContainerStartDelay == 0 {
		c.ContainerStartDelay = time.Second
	}
	if c.PullBackoffBase == 0 {
		c.PullBackoffBase = 10 * time.Second
	}
	if c.PullBackoffMax == 0 {
		c.PullBackoffMax = 5 * time.Minute
	}
	if c.SchedulerInterval == 0 {
		c.SchedulerInterval = time.Second
	}
	if c.AutoscalerInterval == 0 {
		c.AutoscalerInterval = 10 * time.Second
	}
	if c.ScaleDownDelay == 0 {
		c.ScaleDownDelay = 10 * time.Minute
	}
	return c
}

// Cluster is the simulated control plane plus node fleet. All methods
// must be called from the owning goroutine (engine callbacks or the
// code driving the engine); the simulation is single-threaded.
type Cluster struct {
	eng  *simclock.Engine
	lane simclock.Lane // engine lane for controller batches
	cfg  Config
	rng  *simclock.RNG
	// naive routes the scheduling predicates and sweeps through the
	// retained reference forms (reference.go); see SetNaiveScheduling.
	naive bool

	pods         map[string]*Pod
	nodes        map[string]*Node
	services     map[string]*Service
	statefulsets map[string]*StatefulSet

	// Incremental scheduling indexes. podsByNode holds the live
	// (non-terminal) pods bound to each node; podsByLabel holds every
	// stored pod under each of its label pairs (labels are immutable
	// after CreatePod). The naive reference path
	// (SetNaiveScheduling) ignores every index in this block and
	// rescans the stores; maintenance is unconditional.
	podsByNode  map[string]map[string]*Pod
	podsByLabel map[string]map[string]*Pod
	// pendingQ holds the Pending, not-yet-bound pods in UID order:
	// CreatePod assigns UIDs monotonically and appends; a bind or a
	// delete leaves the entry behind as a tombstone (Pod.waiting turns
	// false and never turns true again) and the scheduler pass drops
	// tombstones when it has walked the queue. pendingLive counts the
	// entries still waiting.
	pendingQ    []*Pod
	pendingLive int
	// nodeList is the age-sorted roster: its first nodeSorted entries
	// are in order, addNode appends behind them, and nodeStale says a
	// removal has not been filtered out yet (see sortedNodes).
	nodeList   []*Node
	nodeSorted int
	nodeStale  bool
	// Fleet aggregates maintained at addNode/removeNode. emptyNodes
	// counts the nodes with a non-zero EmptySince and emptyOldest is a
	// lower bound on the oldest such stamp.
	readyNodes       int
	totalAllocatable resources.Vector
	emptyNodes       int
	emptyOldest      time.Time

	// Dirty flags: what a control loop would have to look at again.
	// schedDirty — a pod was created, capacity was released or a node
	// was added since the last scheduler pass; while it is clear every
	// waiting pod has already been rejected by every node. scaleDirty —
	// the unschedulable set, a node's free capacity, the roster or
	// provisioning changed since the last scale-up evaluation. ssDirty —
	// a StatefulSet member was deleted since the last reconcile.
	schedDirty, scaleDirty, ssDirty bool

	// Per-pass scratch of the first-fit sweeps (see fitCursor).
	cursors   []fitCursor
	cursorIdx map[resources.Vector]int
	freeSpace []resources.Vector
	bins      []resources.Vector
	fitProbes int64 // Fits evaluations made by the indexed sweeps

	uid     int64
	nodeSeq int

	events       []Event
	podHandlers  []func(PodWatchEvent)
	nodeHandlers []func(NodeWatchEvent)

	tickers      []*simclock.Ticker
	schedTicker  *simclock.Ticker
	provisioning int                 // node count currently being reserved
	pulls        map[string][]func() // node/image -> waiters
	pullFault    func(node, image string, attempt int) PullFault
	stopped      bool
}

// NewCluster builds a cluster with cfg.InitialNodes ready nodes and
// starts the scheduler and cloud-controller loops on eng.
func NewCluster(eng *simclock.Engine, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		eng:          eng,
		lane:         eng.NewLane("kubesim"),
		cfg:          cfg,
		rng:          simclock.NewRNG(cfg.Seed),
		pods:         make(map[string]*Pod),
		nodes:        make(map[string]*Node),
		services:     make(map[string]*Service),
		statefulsets: make(map[string]*StatefulSet),
		podsByNode:   make(map[string]map[string]*Pod),
		podsByLabel:  make(map[string]map[string]*Pod),
		cursorIdx:    make(map[resources.Vector]int),
		pulls:        make(map[string][]func()),
	}
	for i := 0; i < cfg.InitialNodes; i++ {
		c.addNode()
	}
	c.schedTicker = eng.Every(cfg.SchedulerInterval, "kube-scheduler", c.scheduleOnce)
	c.tickers = append(c.tickers,
		c.schedTicker,
		eng.Every(cfg.AutoscalerInterval, "cloud-controller", c.cloudControllerOnce),
	)
	return c
}

// Stop cancels all control loops; the cluster becomes inert so the
// discrete-event engine can drain.
func (c *Cluster) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, t := range c.tickers {
		t.Stop()
	}
}

// Config returns the effective configuration (defaults applied).
func (c *Cluster) Config() Config { return c.cfg }

// SetSchedulerSlowdown stretches the binding-loop period to factor
// times the configured interval — the gray degradation of a scheduler
// that still works, just slowly. Factor 1 (or less) restores the
// configured cadence; the wait restarts from now either way.
func (c *Cluster) SetSchedulerSlowdown(factor float64) {
	if c.stopped || c.schedTicker == nil {
		return
	}
	if factor < 1 {
		factor = 1
	}
	c.schedTicker.Reset(time.Duration(float64(c.cfg.SchedulerInterval) * factor))
}

// SetNaiveScheduling switches the control plane between the indexed
// read paths and the retained naive reference forms of the scheduling
// predicates and sweeps (full pod-store scans, fresh node sorts per
// pass). The decisions are identical either way; the switch exists for
// differential tests and benchmark baselines. Index maintenance is
// unconditional, so the switch is valid at any point in a cluster's
// life; benchmarks use it to build large fixtures with the indexed
// paths before timing the naive ones.
func (c *Cluster) SetNaiveScheduling(naive bool) { c.naive = naive }

// Clock returns the cluster's simulation clock.
func (c *Cluster) Clock() simclock.Clock { return c.eng }

// Engine returns the underlying discrete-event engine.
func (c *Cluster) Engine() *simclock.Engine { return c.eng }

// --- event plumbing ---

func (c *Cluster) recordEvent(object, reason, message string) {
	c.events = append(c.events, Event{
		Time:    c.eng.Now(),
		Object:  object,
		Reason:  reason,
		Message: message,
	})
}

// RecordEvent appends a controller-authored event to the cluster's
// event log, the way an operator posts Events against the objects it
// manages (kubectl describe visibility). HTA uses it to surface
// crash-recovery activity: reattached workers, adopted pods,
// reconcile corrections.
func (c *Cluster) RecordEvent(object, reason, message string) {
	c.recordEvent(object, reason, message)
}

// Events returns the full control-plane event log.
func (c *Cluster) Events() []Event { return append([]Event(nil), c.events...) }

// EventsFor returns the events whose object matches exactly (e.g.
// "pod/wq-worker-3") — the per-object view kubectl describe shows.
func (c *Cluster) EventsFor(object string) []Event {
	var out []Event
	for _, ev := range c.events {
		if ev.Object == object {
			out = append(out, ev)
		}
	}
	return out
}

// OnPod registers an informer-style handler for pod watch events.
func (c *Cluster) OnPod(h func(PodWatchEvent)) { c.podHandlers = append(c.podHandlers, h) }

// OnNode registers an informer-style handler for node watch events.
func (c *Cluster) OnNode(h func(NodeWatchEvent)) { c.nodeHandlers = append(c.nodeHandlers, h) }

func (c *Cluster) notifyPod(t WatchEventType, p *Pod, reason string) {
	ev := PodWatchEvent{Type: t, Pod: p.DeepCopy(), Reason: reason}
	for _, h := range c.podHandlers {
		h(ev)
	}
}

func (c *Cluster) notifyNode(t WatchEventType, n *Node) {
	ev := NodeWatchEvent{Type: t, Node: n.DeepCopy()}
	for _, h := range c.nodeHandlers {
		h(ev)
	}
}

// --- pod API ---

// CreatePod submits a pod to the API server. The pod starts Pending
// and is bound by the scheduler loop.
func (c *Cluster) CreatePod(spec PodSpec) (Pod, error) {
	if spec.Name == "" {
		return Pod{}, fmt.Errorf("kubesim: pod with empty name")
	}
	if _, dup := c.pods[spec.Name]; dup {
		return Pod{}, fmt.Errorf("kubesim: pod %q already exists", spec.Name)
	}
	if !spec.Resources.IsNonNegative() {
		return Pod{}, fmt.Errorf("kubesim: pod %q has negative resource requests %v", spec.Name, spec.Resources)
	}
	c.uid++
	labels := make(map[string]string, len(spec.Labels))
	for k, v := range spec.Labels {
		labels[k] = v
	}
	p := &Pod{
		Name:      spec.Name,
		UID:       c.uid,
		Image:     spec.Image,
		Resources: spec.Resources,
		Labels:    labels,
		Phase:     PodPending,
		CreatedAt: c.eng.Now(),
		usage:     spec.Usage,
	}
	c.pods[spec.Name] = p
	c.indexPod(p)
	c.pendingQ = append(c.pendingQ, p)
	c.pendingLive++
	c.schedDirty = true
	c.notifyPod(Added, p, "")
	return p.DeepCopy(), nil
}

// labelKey composes the podsByLabel index key for one label pair.
func labelKey(k, v string) string { return k + "\x00" + v }

// indexPod registers a freshly stored pod in the label index. Pod
// labels are immutable after creation, so membership only changes at
// create/delete time.
func (c *Cluster) indexPod(p *Pod) {
	for k, v := range p.Labels {
		key := labelKey(k, v)
		m := c.podsByLabel[key]
		if m == nil {
			m = make(map[string]*Pod)
			c.podsByLabel[key] = m
		}
		m[p.Name] = p
	}
}

// unindexPod removes a pod from the label index at deletion time.
func (c *Cluster) unindexPod(p *Pod) {
	for k, v := range p.Labels {
		key := labelKey(k, v)
		if m := c.podsByLabel[key]; m != nil {
			delete(m, p.Name)
			if len(m) == 0 {
				delete(c.podsByLabel, key)
			}
		}
	}
}

// release removes a formerly live, bound pod from its node's
// incremental accounting. Callers invoke it exactly once, at the
// pod's live→terminal (or live→deleted) transition.
func (c *Cluster) release(p *Pod) {
	if p.NodeName == "" {
		return
	}
	if n, ok := c.nodes[p.NodeName]; ok {
		n.Allocated = n.Allocated.Sub(p.Resources)
		n.livePods--
		c.schedDirty, c.scaleDirty = true, true
	}
	if m := c.podsByNode[p.NodeName]; m != nil {
		delete(m, p.Name)
		if len(m) == 0 {
			delete(c.podsByNode, p.NodeName)
		}
	}
}

// selectorBucket returns the smallest label-index bucket covering a
// non-empty selector; every pod matching the selector is in it. A nil
// return means no stored pod matches.
func (c *Cluster) selectorBucket(selector map[string]string) map[string]*Pod {
	var smallest map[string]*Pod
	for k, v := range selector {
		m := c.podsByLabel[labelKey(k, v)]
		if len(m) == 0 {
			return nil
		}
		if smallest == nil || len(m) < len(smallest) {
			smallest = m
		}
	}
	return smallest
}

// DeletePod removes a pod. A running pod is killed (its node is freed
// immediately); informers see a Deleted event with reason Killing.
func (c *Cluster) DeletePod(name string) error {
	p, ok := c.pods[name]
	if !ok {
		return fmt.Errorf("kubesim: pod %q not found", name)
	}
	reason := ""
	if p.Phase == PodRunning || (p.Phase == PodPending && p.NodeName != "") {
		reason = ReasonKilling
		c.recordEvent("pod/"+name, ReasonKilling, "stopping container")
	}
	if p.waiting() {
		c.pendingLive--
		if p.UnschedulableSeen {
			c.scaleDirty = true
		}
	}
	if _, member := c.statefulsets[p.Labels["statefulset"]]; member {
		c.ssDirty = true
	}
	c.unbind(p)
	c.unindexPod(p)
	delete(c.pods, name)
	c.notifyPod(Deleted, p, reason)
	return nil
}

// MarkPodSucceeded transitions a running pod to Succeeded — the
// graceful exit of a drained worker. The node is freed.
func (c *Cluster) MarkPodSucceeded(name string) error {
	p, ok := c.pods[name]
	if !ok {
		return fmt.Errorf("kubesim: pod %q not found", name)
	}
	if p.Phase != PodRunning {
		return fmt.Errorf("kubesim: pod %q is %s, not Running", name, p.Phase)
	}
	p.Phase = PodSucceeded
	p.FinishedAt = c.eng.Now()
	c.release(p)
	c.freeNodeOf(p)
	c.recordEvent("pod/"+name, ReasonCompleted, "container exited 0")
	c.notifyPod(Modified, p, ReasonCompleted)
	return nil
}

// GetPod returns a copy of the named pod.
func (c *Cluster) GetPod(name string) (Pod, bool) {
	p, ok := c.pods[name]
	if !ok {
		return Pod{}, false
	}
	return p.DeepCopy(), true
}

// ListPods returns copies of all pods matching the selector (nil
// selects everything), sorted by creation then name. With a non-empty
// selector the lookup walks only the smallest matching label bucket
// instead of the whole store.
func (c *Cluster) ListPods(selector map[string]string) []Pod {
	var out []Pod
	if len(selector) == 0 || c.naive {
		for _, p := range c.pods {
			if p.MatchesSelector(selector) {
				out = append(out, p.DeepCopy())
			}
		}
	} else {
		for _, p := range c.selectorBucket(selector) {
			if p.MatchesSelector(selector) {
				out = append(out, p.DeepCopy())
			}
		}
	}
	slices.SortFunc(out, func(a, b Pod) int { return cmp.Compare(a.UID, b.UID) })
	return out
}

// --- node accessors ---

// Nodes returns copies of all nodes in scheduler order: creation time,
// then name compared as a string — within one provisioning wave
// "node-10" comes before "node-9".
func (c *Cluster) Nodes() []Node {
	nodes := c.sortedNodes()
	out := make([]Node, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.DeepCopy())
	}
	return out
}

// ReadyNodes returns the number of ready nodes.
func (c *Cluster) ReadyNodes() int {
	if c.naive {
		return c.naiveReadyNodes()
	}
	return c.readyNodes
}

// NodeCount returns ready plus provisioning node count.
func (c *Cluster) NodeCount() int { return len(c.nodes) + c.provisioning }

// ReadyNodeNames returns the names of ready nodes in scheduler order
// (creation time, then name) — a deterministic roster for fault
// injectors picking victims.
func (c *Cluster) ReadyNodeNames() []string {
	nodes := c.sortedNodes()
	out := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n.Ready {
			out = append(out, n.Name)
		}
	}
	return out
}

// PodsOnNode returns the count of non-terminal pods bound to the node.
func (c *Cluster) PodsOnNode(name string) int {
	if c.naive {
		n := 0
		for _, p := range c.pods {
			if p.NodeName == name && !p.Terminal() {
				n++
			}
		}
		return n
	}
	return len(c.podsByNode[name])
}

// TotalAllocatable returns the summed allocatable of ready nodes.
func (c *Cluster) TotalAllocatable() resources.Vector {
	if c.naive {
		return c.naiveTotalAllocatable()
	}
	return c.totalAllocatable
}

// --- services & statefulsets ---

// CreateService stores a service object.
func (c *Cluster) CreateService(s Service) error {
	if s.Name == "" {
		return fmt.Errorf("kubesim: service with empty name")
	}
	if _, dup := c.services[s.Name]; dup {
		return fmt.Errorf("kubesim: service %q already exists", s.Name)
	}
	cp := s
	c.services[s.Name] = &cp
	return nil
}

// GetService returns the named service.
func (c *Cluster) GetService(name string) (Service, bool) {
	s, ok := c.services[name]
	if !ok {
		return Service{}, false
	}
	return *s, true
}

// CreateStatefulSet stores the set and creates its pods with sticky
// identities name-0 .. name-(replicas-1). If a member pod is later
// deleted, the controller recreates it with the same identity.
func (c *Cluster) CreateStatefulSet(ss StatefulSet) error {
	if ss.Name == "" {
		return fmt.Errorf("kubesim: statefulset with empty name")
	}
	if _, dup := c.statefulsets[ss.Name]; dup {
		return fmt.Errorf("kubesim: statefulset %q already exists", ss.Name)
	}
	cp := ss
	c.statefulsets[ss.Name] = &cp
	c.reconcileStatefulSet(&cp)
	return nil
}

// DeleteStatefulSet removes the set and all its member pods.
func (c *Cluster) DeleteStatefulSet(name string) error {
	ss, ok := c.statefulsets[name]
	if !ok {
		return fmt.Errorf("kubesim: statefulset %q not found", name)
	}
	delete(c.statefulsets, name)
	for i := 0; i < ss.Replicas; i++ {
		podName := fmt.Sprintf("%s-%d", ss.Name, i)
		if _, ok := c.pods[podName]; ok {
			if err := c.DeletePod(podName); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Cluster) reconcileStatefulSet(ss *StatefulSet) {
	for i := 0; i < ss.Replicas; i++ {
		podName := fmt.Sprintf("%s-%d", ss.Name, i)
		if _, ok := c.pods[podName]; ok {
			continue
		}
		spec := ss.Template
		spec.Name = podName
		labels := make(map[string]string, len(ss.Template.Labels)+1)
		for k, v := range ss.Template.Labels {
			labels[k] = v
		}
		labels["statefulset"] = ss.Name
		spec.Labels = labels
		// Creation cannot fail: name is free and template was
		// accepted at CreateStatefulSet time.
		if _, err := c.CreatePod(spec); err != nil {
			c.recordEvent("statefulset/"+ss.Name, "FailedCreate", err.Error())
		}
	}
}

// --- metrics ---

// PodUsage returns the pod's instantaneous usage, or zero if it has
// no reporter or is not running.
func (c *Cluster) PodUsage(name string) resources.Vector {
	p, ok := c.pods[name]
	if !ok || p.Phase != PodRunning || p.usage == nil {
		return resources.Zero
	}
	return p.usage()
}

// AvgCPUUtilization returns the mean CPU utilization (used/requested)
// across running pods matching the selector, and the number of pods
// considered. Pods without usage reporters count as zero usage, as a
// metrics server would report an idle container.
func (c *Cluster) AvgCPUUtilization(selector map[string]string) (float64, int) {
	var usedMilli, reqMilli int64
	n := 0
	sample := func(p *Pod) {
		if !p.MatchesSelector(selector) || p.Phase != PodRunning {
			return
		}
		n++
		reqMilli += p.Resources.MilliCPU
		if p.usage != nil {
			usedMilli += p.usage().MilliCPU
		}
	}
	if len(selector) == 0 || c.naive {
		for _, p := range c.pods {
			sample(p)
		}
	} else {
		for _, p := range c.selectorBucket(selector) {
			sample(p)
		}
	}
	if reqMilli == 0 {
		return 0, n
	}
	return float64(usedMilli) / float64(reqMilli), n
}

// UsedCPUCores returns the instantaneous CPU consumption summed over
// all running pods, in cores.
func (c *Cluster) UsedCPUCores() float64 {
	var used int64
	for _, p := range c.pods {
		if p.Phase == PodRunning && p.usage != nil {
			used += p.usage().MilliCPU
		}
	}
	return float64(used) / 1000
}
