// Package hta is a reproduction of "Autoscaling High-Throughput
// Workloads on Container Orchestrators" (Zheng, Kremer-Herman,
// Shaffer, Thain — IEEE CLUSTER 2020): the High-Throughput Autoscaler
// (HTA) middleware together with every substrate it runs on — a
// Makeflow-syntax workflow parser, a Work Queue-style master/worker
// scheduler (simulated and over real TCP), a discrete-event Kubernetes
// control-plane simulator with a Horizontal Pod Autoscaler baseline,
// and the full evaluation harness that regenerates the paper's
// figures and tables.
//
// This package is the public façade: it wires the simulated stack
// together so a downstream user can run an HTC workload under HTA (or
// under the HPA baseline) in a few lines:
//
//	sys, _ := hta.NewSystem(hta.SystemConfig{})
//	res, _ := sys.RunTasks(hta.UniformTasks(100, time.Minute))
//	fmt.Println(res.Runtime, res.AccumulatedWasteCoreSeconds)
//
// The deeper layers are exposed as aliases for advanced use (building
// custom clusters, autoscalers or workloads).
package hta

import (
	"fmt"
	"io"
	"time"

	"hta/internal/core"
	"hta/internal/dag"
	"hta/internal/flow"
	"hta/internal/kubesim"
	"hta/internal/makeflow"
	"hta/internal/metrics"
	"hta/internal/netsim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/workload"
	"hta/internal/wq"
)

// Aliases into the component layers, for users who need more than the
// façade.
type (
	// Engine is the discrete-event simulation engine all components
	// share.
	Engine = simclock.Engine
	// Cluster is the simulated Kubernetes control plane and fleet.
	Cluster = kubesim.Cluster
	// ClusterConfig parameterizes the cluster.
	ClusterConfig = kubesim.Config
	// Master is the Work Queue master.
	Master = wq.Master
	// TaskSpec describes one task.
	TaskSpec = wq.TaskSpec
	// TaskResult is a completed task.
	TaskResult = wq.Result
	// Resources is a (CPU, memory, disk) vector.
	Resources = resources.Vector
	// Autoscaler is the HTA middleware itself.
	Autoscaler = core.Autoscaler
	// AutoscalerConfig parameterizes HTA.
	AutoscalerConfig = core.Config
	// Graph is a workflow DAG.
	Graph = dag.Graph
	// Node is one workflow task node.
	Node = dag.Node
	// Series is a step time series produced by the metrics sampler.
	Series = metrics.Series
)

// NewResources builds a resource vector from cores, memory (MB) and
// disk (MB).
func NewResources(cores float64, memMB, diskMB int64) Resources {
	return resources.New(cores, memMB, diskMB)
}

// ParseMakeflow parses a Makeflow-syntax workflow description.
func ParseMakeflow(r io.Reader) (*makeflow.Result, error) { return makeflow.Parse(r) }

// SystemConfig configures a simulated HTC system.
type SystemConfig struct {
	// Cluster overrides the simulated cluster settings (defaults:
	// 3 initial nodes, 20-node quota, 3-core nodes, GKE-like
	// provisioning latency).
	Cluster ClusterConfig
	// Autoscaler overrides HTA settings.
	Autoscaler AutoscalerConfig
	// MasterEgressMBps models the master's shared egress link
	// (0 = data movement is free).
	MasterEgressMBps float64
	// StreamContention is the per-extra-stream link efficiency in
	// (0,1]; 0 means no contention model.
	StreamContention float64
	// Start is the virtual start time (defaults to a fixed epoch so
	// runs are reproducible).
	Start time.Time
}

// System is a wired simulated stack: engine + cluster + master + HTA.
type System struct {
	eng     *simclock.Engine
	cluster *kubesim.Cluster
	master  *wq.Master
	auto    *core.Autoscaler
	link    *netsim.Link
}

// NewSystem builds the simulated stack and starts HTA's warm-up stage
// (master StatefulSet, services, initial worker pods).
func NewSystem(cfg SystemConfig) (*System, error) {
	start := cfg.Start
	if start.IsZero() {
		start = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	}
	eng := simclock.NewEngine(start)
	cluster := kubesim.NewCluster(eng, cfg.Cluster)
	var link *netsim.Link
	if cfg.MasterEgressMBps > 0 {
		link = netsim.NewLink(eng, cfg.MasterEgressMBps, 0)
		if cfg.StreamContention > 0 && cfg.StreamContention < 1 {
			link.SetContention(cfg.StreamContention)
		}
	}
	master := wq.NewMaster(eng, link)
	auto := core.New(eng, cluster, master, cfg.Autoscaler)
	if err := auto.Start(); err != nil {
		return nil, err
	}
	return &System{eng: eng, cluster: cluster, master: master, auto: auto, link: link}, nil
}

// Engine returns the simulation engine (to schedule custom events or
// advance time manually).
func (s *System) Engine() *Engine { return s.eng }

// Cluster returns the simulated cluster.
func (s *System) Cluster() *Cluster { return s.cluster }

// Master returns the Work Queue master.
func (s *System) Master() *Master { return s.master }

// Autoscaler returns the HTA instance.
func (s *System) Autoscaler() *Autoscaler { return s.auto }

// Status reports the autoscaler's current stage, fleet, queue and
// initialization-time estimate.
func (s *System) Status() core.Status { return s.auto.Status() }

// Result summarizes a completed workload run.
type Result struct {
	// Runtime is the workload makespan in virtual time.
	Runtime time.Duration
	// Completed is the number of tasks that finished.
	Completed int
	// InitTimeSamples are the resource-initialization times HTA
	// measured during the run.
	InitTimeSamples []time.Duration
	// Supply, InUse, Shortage and Waste are the sampled
	// supply/demand series in cores.
	Supply, InUse, Shortage, Waste *Series
	// AccumulatedWasteCoreSeconds is ∫(supply − in-use) dt.
	AccumulatedWasteCoreSeconds float64
	// AccumulatedShortageCoreSeconds is ∫shortage dt.
	AccumulatedShortageCoreSeconds float64
	// PeakWorkers is the largest connected-worker count observed.
	PeakWorkers int
}

// RunWorkflow executes a DAG through HTA and blocks (in virtual time)
// until it completes, then runs HTA's clean-up stage. specFor maps
// each node to its task spec. timeout bounds the run in virtual time
// (0 = 24 h).
func (s *System) RunWorkflow(g *Graph, specFor func(Node) TaskSpec, timeout time.Duration) (*Result, error) {
	if timeout == 0 {
		timeout = 24 * time.Hour
	}
	acct := metrics.NewAccount()
	peak := 0
	sample := func() {
		st := s.master.Stats()
		if st.Workers > peak {
			peak = st.Workers
		}
		shortage := float64(st.Waiting + s.auto.HeldTasks()) // ≥1 core per waiting task
		acct.Sample(s.eng.Now(), st.Capacity.CoresValue(), st.InUse.CoresValue(), shortage)
	}
	ticker := s.eng.Every(5*time.Second, "hta-facade-sampler", sample)
	defer ticker.Stop()

	runner := flow.NewRunner(g, s.auto, specFor)
	res := &Result{}
	finished := false
	runner.OnAllDone(func() {
		res.Runtime = s.eng.Elapsed()
		s.auto.Shutdown(func() { finished = true })
	})
	sample()
	runner.Start()
	deadline := s.eng.Now().Add(timeout)
	s.eng.RunWhile(func() bool { return !finished && s.eng.Now().Before(deadline) })
	if !finished {
		return nil, fmt.Errorf("hta: workload did not finish within %v (queue %+v)", timeout, s.master.Stats())
	}
	if err := runner.Err(); err != nil {
		return nil, err
	}
	end := s.eng.Now()
	res.Completed = s.master.CompletedCount()
	res.InitTimeSamples = s.auto.Tracker().Samples()
	res.Supply, res.InUse = acct.Supply, acct.InUse
	res.Shortage, res.Waste = acct.Shortage, acct.Waste
	res.AccumulatedWasteCoreSeconds = acct.AccumulatedWaste(end)
	res.AccumulatedShortageCoreSeconds = acct.AccumulatedShortage(end)
	res.PeakWorkers = peak
	return res, nil
}

// RunTasks executes a flat bag of tasks (no dependencies). The run
// reads specs while it lasts and does not copy it: do not modify the
// slice until RunTasks returns.
func (s *System) RunTasks(specs []TaskSpec) (*Result, error) {
	g, fn, err := flow.FromSpecs(specs)
	if err != nil {
		return nil, err
	}
	return s.RunWorkflow(g, fn, 0)
}

// RunMakeflow parses a Makeflow description and executes it. Since a
// Makeflow file carries no execution model, synth provides the
// simulated profile for each node (nil uses a uniform default of one
// core-minute per task).
func (s *System) RunMakeflow(r io.Reader, synth func(Node) TaskSpec) (*Result, error) {
	parsed, err := makeflow.Parse(r)
	if err != nil {
		return nil, err
	}
	if synth == nil {
		synth = DefaultMakeflowProfile
	}
	return s.RunWorkflow(parsed.Graph, synth, 0)
}

// DefaultMakeflowProfile synthesizes a task spec for a Makeflow node:
// the node's declared category resources, a one-minute execution time
// and a CPU consumption of 90 % of one core.
func DefaultMakeflowProfile(n Node) TaskSpec {
	return TaskSpec{
		Command:   n.Command,
		Category:  n.Category,
		Resources: n.Resources,
		Profile: wq.Profile{
			ExecDuration: time.Minute,
			UsedCPUMilli: 900,
			UsedMemoryMB: 512,
		},
	}
}

// UniformTasks generates n identical tasks of the given duration with
// unknown resource requirements — the simplest workload for trying
// the system.
func UniformTasks(n int, d time.Duration) []TaskSpec {
	return workload.UniformParams{N: n, Exec: d, Jitter: 0.1, CPUMilli: 900, Seed: 1}.Specs()
}

// BlastWorkload returns the paper's flat BLAST workload generator.
func BlastWorkload(n int) workload.BlastFlatParams { return workload.DefaultBlastFlat(n) }

// MultistageWorkload returns the paper's three-stage BLAST workflow
// generator (Fig. 10).
func MultistageWorkload() workload.MultistageParams { return workload.DefaultMultistage() }

// IOBoundWorkload returns the paper's I/O-bound workload generator
// (Fig. 11).
func IOBoundWorkload() workload.IOBoundParams { return workload.DefaultIOBound() }
