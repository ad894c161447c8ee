package kubesim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// Config parameterizes the simulated cluster. Zero values take the
// defaults documented on each field, which are calibrated to the
// paper's GKE testbed (n1-standard-4 nodes with ~3 allocatable cores,
// provisioning latency ≈ N(157.4 s, 4.2 s) including image pull).
// The rest of the timing is fixed: every image is 700 MB pulled at
// 100 MB/s (7 s, ±5 % jitter), a container starts 1 s after its image
// is present, the scheduler binds every 1 s, and the cloud controller
// batches node scale-ups every 10 s.
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
	// ScaleDownDelay is how long a node must stay empty before the
	// cloud controller removes it (default 10 min, GKE's default).
	ScaleDownDelay time.Duration
	// Seed drives all stochastic latencies.
	Seed int64
}

// The fixed node and control-plane timing (see Config).
const (
	imageSizeMB         = 700.0
	imagePullMBps       = 100.0
	containerStartDelay = time.Second
	schedulerInterval   = time.Second
	autoscalerInterval  = 10 * time.Second
)

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
	if c.ScaleDownDelay == 0 {
		c.ScaleDownDelay = 10 * time.Minute
	}
	return c
}

// Cluster is the simulated control plane plus node fleet. All methods
// must be called from the owning goroutine (engine callbacks or the
// code driving the engine); the simulation is single-threaded.
type Cluster struct {
	eng *simclock.Engine
	cfg Config
	rng *simclock.RNG
	// naive routes the scheduling predicates and sweeps through the
	// retained reference forms (reference.go); see SetNaiveScheduling.
	naive bool

	pods         map[string]*Pod
	nodes        map[string]*Node
	services     map[string]*Service
	statefulsets map[string]*StatefulSet

	// Incremental scheduling indexes. podsByNode holds the live
	// (non-terminal) pods bound to each node; a node's bucket lives as
	// long as the node, so its successive pods reuse one map.
	// podsByLabel holds every stored pod under each of its label pairs
	// (labels are immutable after CreatePod). The naive reference path
	// (SetNaiveScheduling) ignores every index in this block and
	// rescans the stores; maintenance is unconditional.
	podsByNode  map[string]map[string]*Pod
	podsByLabel map[labelPair]map[string]*Pod
	// labelSets holds the frozen label maps of the stored pods, one per
	// distinct set, under its canonical encoding (see internLabels);
	// labelKeys and labelBuf are that encoding's scratch.
	labelSets map[string]*labelSet
	labelKeys []string
	labelBuf  []byte
	listBuf   []*Pod // ListPods' scratch
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

	podHandlers  []func(PodWatchEvent)
	nodeHandlers []func(NodeWatchEvent)

	tickers      []*simclock.Ticker
	provisioning int                // node count currently being reserved
	pulls        map[pullKey][]*Pod // node/image -> pods waiting to start
	stopped      bool
}

// NewCluster builds a cluster with cfg.InitialNodes ready nodes and
// starts the scheduler and cloud-controller loops on eng.
func NewCluster(eng *simclock.Engine, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		eng:          eng,
		cfg:          cfg,
		rng:          simclock.NewRNG(cfg.Seed),
		pods:         make(map[string]*Pod),
		nodes:        make(map[string]*Node),
		services:     make(map[string]*Service),
		statefulsets: make(map[string]*StatefulSet),
		podsByNode:   make(map[string]map[string]*Pod),
		podsByLabel:  make(map[labelPair]map[string]*Pod),
		labelSets:    make(map[string]*labelSet),
		cursorIdx:    make(map[resources.Vector]int),
		pulls:        make(map[pullKey][]*Pod),
	}
	for i := 0; i < cfg.InitialNodes; i++ {
		c.addNode()
	}
	c.tickers = append(c.tickers,
		eng.Every(schedulerInterval, "kube-scheduler", c.scheduleOnce),
		eng.Every(autoscalerInterval, "cloud-controller", c.cloudControllerOnce),
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

// SetNaiveScheduling switches the control plane between the indexed
// read paths and the retained naive reference forms of the scheduling
// predicates and sweeps (full pod-store scans, fresh node sorts per
// pass). The decisions are identical either way; the switch exists for
// differential tests and benchmark baselines. Index maintenance is
// unconditional, so the switch is valid at any point in a cluster's
// life; benchmarks use it to build large fixtures with the indexed
// paths before timing the naive ones.
func (c *Cluster) SetNaiveScheduling(naive bool) { c.naive = naive }

// Engine returns the underlying discrete-event engine.
func (c *Cluster) Engine() *simclock.Engine { return c.eng }

// --- watches ---

// OnPod registers an informer-style handler for pod watch events.
// Every handler receives the same shallow copy of the pod: its Labels
// map is the cluster's and must not be mutated.
func (c *Cluster) OnPod(h func(PodWatchEvent)) { c.podHandlers = append(c.podHandlers, h) }

// OnNode registers an informer-style handler for node watch events.
// Every handler receives the same shallow copy of the node: its Images
// map is the cluster's and must not be mutated.
func (c *Cluster) OnNode(h func(NodeWatchEvent)) { c.nodeHandlers = append(c.nodeHandlers, h) }

func (c *Cluster) notifyPod(t WatchEventType, p *Pod, reason string) {
	ev := PodWatchEvent{Type: t, Pod: *p, Reason: reason}
	for _, h := range c.podHandlers {
		h(ev)
	}
}

func (c *Cluster) notifyNode(t WatchEventType, n *Node) {
	ev := NodeWatchEvent{Type: t, Node: *n}
	for _, h := range c.nodeHandlers {
		h(ev)
	}
}

// --- pod API ---

// CreatePod submits a pod to the API server. The pod starts Pending
// and is bound by the scheduler loop. The cluster keeps its own copy of
// spec.Labels (shared with earlier pods of an equal label set), so the
// caller may reuse or change its map afterwards. The returned pod is a
// shallow copy whose Labels must not be mutated.
func (c *Cluster) CreatePod(spec PodSpec) (Pod, error) {
	if spec.Name == "" {
		return Pod{}, fmt.Errorf("kubesim: pod with empty name")
	}
	if _, dup := c.pods[spec.Name]; dup {
		return Pod{}, fmt.Errorf("kubesim: pod %q already exists", spec.Name)
	}
	if err := spec.validate(); err != nil {
		return Pod{}, fmt.Errorf("kubesim: pod %q %w", spec.Name, err)
	}
	c.uid++
	ls := c.internLabels(spec.Labels)
	p := &Pod{
		Name:      spec.Name,
		UID:       c.uid,
		Image:     spec.Image,
		Resources: spec.Resources,
		Labels:    ls.labels,
		Phase:     PodPending,
		CreatedAt: c.eng.Now(),
		usage:     spec.Usage,
		labels:    ls,
	}
	c.pods[spec.Name] = p
	c.indexPod(p)
	c.pendingQ = append(c.pendingQ, p)
	c.pendingLive++
	c.schedDirty = true
	c.notifyPod(Added, p, "")
	return *p, nil
}

// validate runs the checks a spec must pass whatever its name and the
// store's contents: CreatePod applies them to every pod, and the
// StatefulSet and WorkerSet controllers to their templates up front,
// so the pods they create later cannot be refused.
func (spec PodSpec) validate() error {
	if !spec.Resources.IsNonNegative() {
		return fmt.Errorf("has negative resource requests %v", spec.Resources)
	}
	return nil
}

// labelPair is one label, the key of the podsByLabel index.
type labelPair struct{ key, value string }

// labelSet is one frozen label map, shared by every stored pod created
// with an equal set of labels. refs counts those pods; the set leaves
// Cluster.labelSets with the last of them.
type labelSet struct {
	key    string // canonical encoding, the labelSets key
	labels map[string]string
	refs   int
}

// internLabels returns the shared set equal to m, copying m into a new
// set on first sight. The lookup key is m's pairs in key order, each
// string length-prefixed, so distinct sets never collide; building it
// reuses scratch, and the map lookup on the converted bytes does not
// allocate, so a create with a known label set allocates nothing here.
func (c *Cluster) internLabels(m map[string]string) *labelSet {
	keys := c.labelKeys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf := c.labelBuf[:0]
	for _, k := range keys {
		v := m[k]
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	clear(keys)
	c.labelKeys, c.labelBuf = keys, buf
	if ls := c.labelSets[string(buf)]; ls != nil {
		ls.refs++
		return ls
	}
	ls := &labelSet{key: string(buf), labels: maps.Clone(m), refs: 1}
	if ls.labels == nil {
		ls.labels = map[string]string{}
	}
	c.labelSets[ls.key] = ls
	return ls
}

// releaseLabels drops a deleted pod's reference to its label set.
func (c *Cluster) releaseLabels(ls *labelSet) {
	ls.refs--
	if ls.refs == 0 {
		delete(c.labelSets, ls.key)
	}
}

// indexPod registers a freshly stored pod in the label index. Pod
// labels are immutable after creation, so membership only changes at
// create/delete time.
func (c *Cluster) indexPod(p *Pod) {
	for k, v := range p.Labels {
		key := labelPair{k, v}
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
		key := labelPair{k, v}
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
	delete(c.podsByNode[p.NodeName], p.Name)
}

// selectorBucket returns the smallest label-index bucket covering a
// non-empty selector; every pod matching the selector is in it. A nil
// return means no stored pod matches.
func (c *Cluster) selectorBucket(selector map[string]string) map[string]*Pod {
	var smallest map[string]*Pod
	for k, v := range selector {
		m := c.podsByLabel[labelPair{k, v}]
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
	c.releaseLabels(p.labels)
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
	c.notifyPod(Modified, p, ReasonCompleted)
	return nil
}

// GetPod returns a shallow copy of the named pod; its Labels map is
// shared and must not be mutated.
func (c *Cluster) GetPod(name string) (Pod, bool) {
	p, ok := c.pods[name]
	if !ok {
		return Pod{}, false
	}
	return *p, true
}

// ListPods returns shallow copies of all pods matching the selector
// (nil selects everything), sorted by creation then name; their Labels
// maps are shared and must not be mutated. With a non-empty selector
// the lookup walks only the smallest matching label bucket instead of
// the whole store.
func (c *Cluster) ListPods(selector map[string]string) []Pod {
	pods := c.pods
	if len(selector) != 0 && !c.naive {
		pods = c.selectorBucket(selector)
	}
	// Sort pointers and copy each pod once: moving whole Pod values
	// through append's regrowth and the sort cost ~4x as much at
	// fleet size.
	match := c.listBuf[:0]
	for _, p := range pods {
		if p.MatchesSelector(selector) {
			match = append(match, p)
		}
	}
	slices.SortFunc(match, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
	var out []Pod
	if len(match) > 0 {
		out = make([]Pod, len(match))
		for i, p := range match {
			out[i] = *p
		}
	}
	clear(match)
	c.listBuf = match
	return out
}

// --- node accessors ---

// Nodes returns shallow copies of all nodes in scheduler order:
// creation time, then name compared as a string — within one
// provisioning wave "node-10" comes before "node-9". Their Images maps
// are shared and must not be mutated.
func (c *Cluster) Nodes() []Node {
	nodes := c.sortedNodes()
	out := make([]Node, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, *n)
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
// deleted, the controller recreates it with the same identity. A
// template no pod could be created from is refused here.
func (c *Cluster) CreateStatefulSet(ss StatefulSet) error {
	if ss.Name == "" {
		return fmt.Errorf("kubesim: statefulset with empty name")
	}
	if _, dup := c.statefulsets[ss.Name]; dup {
		return fmt.Errorf("kubesim: statefulset %q already exists", ss.Name)
	}
	if err := ss.Template.validate(); err != nil {
		return fmt.Errorf("kubesim: statefulset %q template %w", ss.Name, err)
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
			panic(fmt.Sprintf("kubesim: statefulset template accepted but member refused: %v", err))
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
