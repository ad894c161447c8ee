// Package kubesim is a discrete-event simulation of the slice of
// Kubernetes that an HTC autoscaler interacts with: an API server
// holding Pods, Nodes, StatefulSets and Services with watchable
// lifecycle events; a scheduler that binds pods and emits
// Insufficient-Resource events; kubelets that pull images and start
// containers; and a cloud controller manager that reserves and
// releases nodes with realistic provisioning latency.
//
// The simulator reproduces the control-plane *behaviour* the paper
// measures on GKE (Fig. 6 and §V-B): pods created with requirements
// no node can satisfy stay Pending with a FailedScheduling event, the
// cloud controller reserves machines in batches, kubelets pull the
// container image on first use of a node, and the pod transitions to
// Running only after the full cycle — so a client watching pod events
// observes the same four-state lifecycle (No Available Node → No
// Container Image → Running → Stopped) the paper's informer cache
// tracks. Those watches (Cluster.OnPod, Cluster.OnNode) and the state
// getters are the only way to observe the cluster.
package kubesim

import (
	"time"

	"hta/internal/resources"
)

// PodPhase is the lifecycle phase of a pod, mirroring Kubernetes.
type PodPhase string

// Pod phases.
const (
	PodPending   PodPhase = "Pending"
	PodRunning   PodPhase = "Running"
	PodSucceeded PodPhase = "Succeeded"
	PodFailed    PodPhase = "Failed"
)

// Reasons carried by pod watch events.
const (
	ReasonFailedScheduling = "FailedScheduling" // no node with enough resources
	ReasonScheduled        = "Scheduled"
	ReasonPulling          = "Pulling"
	ReasonPulled           = "Pulled"
	ReasonStarted          = "Started"
	ReasonKilling          = "Killing"
	ReasonCompleted        = "Completed"
)

// PodSpec describes a pod to create.
type PodSpec struct {
	Name      string
	Image     string
	Resources resources.Vector // resource requests
	Labels    map[string]string
	// Usage, when non-nil, reports the pod's instantaneous resource
	// consumption; the metrics server uses it for HPA utilization.
	Usage func() resources.Vector
}

// UsageSource reports the instantaneous resource consumption of the
// worker running in a pod, looked up by the pod's name. A Work Queue
// master is one: it knows its workers by their pods' names.
type UsageSource interface {
	WorkerUsage(pod string) resources.Vector
}

// UsageFunc is a UsageSource for one pod: it ignores the name.
type UsageFunc func() resources.Vector

// WorkerUsage calls f.
func (f UsageFunc) WorkerUsage(string) resources.Vector { return f() }

// Pod is the stored pod object. Clients (watch events, GetPod,
// ListPods, CreatePod's return) receive shallow copies: the scalar
// fields are theirs, but Labels is the cluster's own map, frozen at
// CreatePod and shared by every copy of the pod and by other pods with
// an equal label set. Clients must not mutate it — client-go's
// informer-cache contract.
type Pod struct {
	Name      string
	UID       int64
	Image     string
	Resources resources.Vector
	Labels    map[string]string

	Phase    PodPhase
	NodeName string

	CreatedAt   time.Time
	ScheduledAt time.Time // zero until bound
	RunningAt   time.Time // zero until started
	FinishedAt  time.Time // zero until terminal

	// UnschedulableSeen records that the scheduler failed to place
	// the pod at least once (the paper's "No Available Node" state).
	UnschedulableSeen bool
	// PulledImage records that the kubelet had to pull the image (the
	// paper's "No Container Image" state).
	PulledImage bool

	usage UsageSource
	// labels is the shared label set Labels points into; CreatePod
	// takes a reference and DeletePod drops it.
	labels *labelSet
	// prevOnNode and nextOnNode link the live pods bound to one node
	// (Node.pods), from bind until the pod leaves the live set.
	prevOnNode, nextOnNode *Pod
	// nextWaiter links the pods waiting for one image pull on one node,
	// in bind order (see Cluster.pulls), until the pull ends.
	nextWaiter *Pod
}

// MatchesSelector reports whether the pod's labels contain every
// key/value of sel.
func (p *Pod) MatchesSelector(sel map[string]string) bool {
	for k, v := range sel {
		if p.Labels[k] != v {
			return false
		}
	}
	return true
}

// Terminal reports whether the pod reached a terminal phase.
func (p *Pod) Terminal() bool { return p.Phase == PodSucceeded || p.Phase == PodFailed }

// Node is a cluster machine. Clients (watch events) receive copies;
// the images a node holds are the cluster's (see Cluster.images) and
// not part of the record.
type Node struct {
	Name        string
	Allocatable resources.Vector
	// Allocated is the summed resource requests of live (non-terminal)
	// pods bound to the node, maintained incrementally on bind and
	// release so scheduling predicates never rescan the pod store.
	Allocated resources.Vector
	Ready     bool
	CreatedAt time.Time
	ReadyAt   time.Time
	// EmptySince is the time the node last became free of pods; zero
	// while occupied.
	EmptySince time.Time

	// livePods counts the non-terminal pods bound to the node; kept in
	// lockstep with Allocated. pods heads their list (see Pod.nextOnNode).
	livePods int
	pods     *Pod
	// images counts the images pulled onto the node and lastImage names
	// the newest; each Cluster.images entry links to the one before.
	images    int
	lastImage string
}

// Service is a named network endpoint selecting a set of pods. The
// simulation stores it for API fidelity; HTA creates one for the
// master pod as the paper's deployment does.
type Service struct {
	Name     string
	Selector map[string]string
	Port     int
}

// StatefulSet keeps a fixed number of pods with sticky identities
// (name-0, name-1, ...). The paper wraps the Work Queue master in a
// single-replica StatefulSet so a restarted master keeps its identity.
type StatefulSet struct {
	Name     string
	Replicas int
	Template PodSpec
}

// WatchEventType distinguishes watch notifications.
type WatchEventType string

// Watch event types.
const (
	Added    WatchEventType = "ADDED"
	Modified WatchEventType = "MODIFIED"
	Deleted  WatchEventType = "DELETED"
)

// PodWatchEvent is delivered to pod informers.
type PodWatchEvent struct {
	Type WatchEventType
	Pod  Pod // the pod after the change; Labels is shared, read-only
	// Reason carries the control-plane event reason that caused the
	// modification, when there is one.
	Reason string
}

// NodeWatchEvent is delivered to node informers.
type NodeWatchEvent struct {
	Type WatchEventType
	Node Node // a copy; the cluster keeps the node's image cache
}
