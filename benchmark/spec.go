package main

import (
	"slices"
	"strings"
)

// This file is the benchmark's contract: the workload and metric names
// BENCHMARK.json carries, with units, directions and bounds. A test
// holds the two equal.

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Ungated keeps the workload out of BENCHMARK.json: the benchmark
	// runs and compares it, the regression gate does not.
	Ungated bool `json:"-"`
}

// tcpLoopback is the one workload that is not a simulation.
const tcpLoopback = "tcp-loopback"

var workloadDefs = []workloadDef{
	{Name: "dispatch-storm", Why: "100k static four-core workers, 1M declared one-core tasks up front: wq dispatch, the task slab and the timing wheel do all the work; every other layer does none."},
	{Name: "workflow-hta", Why: "Generated Makeflow (10 stages x 10k rules, 20 categories) parsed and run through flow, HTA, wq and kubesim: the paper's pipeline; makeflow, dag, flow, core and the monitor work, kubesim little."},
	{Name: "io-fleet", Why: "The E-H cell at W=10k: 40k undeclared I/O tasks over a shared link: kubesim provisions and schedules 10k nodes and netsim carries 80k transfers, which dispatch-storm bypasses."},
	{Name: "stream-day", Why: "A day of ~161k open-loop arrivals with the 9:00 spike, panic policy and admission: submits interleave with dispatch on a short queue and the fleet scales down, unlike the bags."},
	// Fork-bound, and so at the mercy of the sandbox: between ten runs
	// the quartile distance of its tasks_per_s was 26 % of the median in
	// one pass and 10 % in the next, against 2-14 % for the simulated
	// workloads in the same hours. No bound the gate allows would hold.
	{Name: tcpLoopback, Why: "wire.Master and two wire.Workers over loopback, tasks the shell no-op: the only workload on the deployable TCP stack; the simulator layers do nothing here.", Ungated: true},
}

// metricDef is one metric: its unit, which direction is better, and —
// for an end-to-end metric — the share of the parent's median by which
// it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// TCPOnly marks a metric only tcp-loopback produces; BENCHMARK.json,
	// which does not carry that workload, leaves it out.
	TCPOnly bool `json:"-"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// gateMetrics are the end-to-end metrics every gated workload reports,
// never 0, and that repeat across seeds within their bound: the ones
// the regression gate can carry.
var gateMetrics = []metricDef{
	{Name: "tasks_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: lower, Bound: 0.18},
	{Name: "allocs_per_task", Unit: "1/task", Better: lower, Bound: 0.08},
	{Name: "sim_makespan_s", Unit: "s", Better: lower, Bound: 0.08},
}

// ownMetrics are the end-to-end metrics the gate cannot carry, because
// they do not apply to every workload (waste needs the sampler, sojourn
// a stream, a round trip the TCP stack), are 0 when all is well
// (failed_share), or swing with the seed by more than any bound the
// gate allows (shortage: 45 % between quartiles on stream-day). The
// benchmark reports them among the per-layer metrics, checks the
// simulated ones for exact repetition inside every run, and gates them
// itself in -compare, which compares runs of one seed.
var ownMetrics = []metricDef{
	{Name: "sim_waste_core_s", Unit: "core-s", Better: lower},
	{Name: "sim_shortage_core_s", Unit: "core-s", Better: lower},
	{Name: "sim_sojourn_p50_s", Unit: "s", Better: lower},
	{Name: "sim_sojourn_p999_s", Unit: "s", Better: lower},
	{Name: "failed_share", Unit: "share", Better: lower},
	{Name: "rtt_p50_ms", Unit: "ms", Better: lower, Bound: 0.10, TCPOnly: true},
}

// exact is the bound of a simulated metric in the benchmark's own
// -compare: 0.01 %, which only a change of behaviour exceeds.
const exact = 0.0001

// compareBound is the bound -compare applies. It compares runs of one
// seed, where a simulated metric (the sim_ prefix marks them) must
// repeat exactly, whatever bound the gate, which compares across seeds,
// has to grant it. failed_share's bound is 0: any rise is worse.
func compareBound(m metricDef) float64 {
	if strings.HasPrefix(m.Name, "sim_") {
		return exact
	}
	return m.Bound
}

// layerMetrics are the per-layer metrics of the traced rep. Each group
// ends with the end-to-end metric and workload it should move.
var layerMetrics = []metricDef{
	// -> tasks_per_s on dispatch-storm
	{Name: "simclock.events", Unit: "count", Better: lower},
	{Name: "simclock.scheduled", Unit: "count", Better: lower},
	{Name: "simclock.ns_per_event", Unit: "ns", Better: lower},
	// -> tasks_per_s and setup_s on dispatch-storm; running_tasks_probe
	// -> tasks_per_s on workflow-hta; shed and quarantined ->
	// failed_share on stream-day
	{Name: "wq.submit_calls", Unit: "count", Better: lower},
	{Name: "wq.submit_ms", Unit: "ms", Better: lower},
	{Name: "wq.add_worker_ms", Unit: "ms", Better: lower},
	{Name: "wq.complete_cb_ms", Unit: "ms", Better: lower},
	{Name: "wq.running_tasks_probe_us_p50", Unit: "us", Better: lower},
	{Name: "wq.running_tasks_probe_us_max", Unit: "us", Better: lower},
	{Name: "wq.waiting_scan_probe_us_p50", Unit: "us", Better: lower},
	{Name: "wq.waiting_scan_probe_us_max", Unit: "us", Better: lower},
	{Name: "wq.stats_probe_ns", Unit: "ns", Better: lower},
	{Name: "wq.peak_waiting", Unit: "count", Better: lower},
	{Name: "wq.requeues", Unit: "count", Better: lower},
	{Name: "wq.shed", Unit: "count", Better: lower},
	{Name: "wq.quarantined", Unit: "count", Better: lower},
	// -> sim_makespan_s and tasks_per_s on io-fleet; flat elsewhere
	{Name: "netsim.transfers", Unit: "count", Better: lower},
	{Name: "netsim.delivered_mb", Unit: "MB", Better: lower},
	{Name: "netsim.sim_busy_s", Unit: "s", Better: lower},
	{Name: "netsim.sim_avg_mbps", Unit: "MB/s", Better: higher},
	{Name: "netsim.peak_active", Unit: "count", Better: lower},
	{Name: "netsim.stats_probe_us_p50", Unit: "us", Better: lower},
	// -> tasks_per_s on io-fleet (most) and stream-day; none on
	// dispatch-storm
	{Name: "kubesim.pods_created", Unit: "count", Better: lower},
	{Name: "kubesim.pod_events", Unit: "count", Better: lower},
	{Name: "kubesim.node_events", Unit: "count", Better: lower},
	{Name: "kubesim.peak_nodes", Unit: "count", Better: lower},
	{Name: "kubesim.sim_init_mean_s", Unit: "s", Better: lower},
	{Name: "kubesim.list_pods_probe_us_p50", Unit: "us", Better: lower},
	{Name: "kubesim.list_pods_probe_us_max", Unit: "us", Better: lower},
	{Name: "kubesim.ready_nodes_probe_us_p50", Unit: "us", Better: lower},
	// -> tasks_per_s on workflow-hta and stream-day; scale_actions and
	// panics -> sim_waste_core_s and sim_sojourn_p999_s on stream-day
	{Name: "core.decisions", Unit: "count", Better: lower},
	{Name: "core.scale_actions", Unit: "count", Better: lower},
	{Name: "core.panics", Unit: "count", Better: lower},
	{Name: "core.init_samples", Unit: "count", Better: lower},
	{Name: "core.input_probe_us_p50", Unit: "us", Better: lower},
	{Name: "core.input_probe_us_max", Unit: "us", Better: lower},
	{Name: "core.plan_probe_us_p50", Unit: "us", Better: lower},
	{Name: "core.plan_probe_us_max", Unit: "us", Better: lower},
	// -> tasks_per_s on workflow-hta (20 categories)
	{Name: "monitor.categories", Unit: "count", Better: lower},
	{Name: "monitor.estimate_probe_ns", Unit: "ns", Better: lower},
	// -> setup_s and tasks_per_s on workflow-hta
	{Name: "makeflow.bytes", Unit: "B", Better: lower},
	{Name: "makeflow.rules", Unit: "count", Better: lower},
	{Name: "makeflow.parse_ms", Unit: "ms", Better: lower},
	{Name: "dag.nodes", Unit: "count", Better: lower},
	{Name: "flow.submit_ms", Unit: "ms", Better: lower},
	{Name: "flow.on_complete_ms", Unit: "ms", Better: lower},
	// -> tasks_per_s and rtt_p50_ms on tcp-loopback
	{Name: "wire.bag_submit_s", Unit: "s", Better: lower, TCPOnly: true},
	{Name: "wire.submit_us_p50", Unit: "us", Better: lower, TCPOnly: true},
	{Name: "wire.rtt_p99_ms", Unit: "ms", Better: lower, TCPOnly: true},
	{Name: "wire.rtt_max_ms", Unit: "ms", Better: lower, TCPOnly: true},
	{Name: "wire.rtt_samples", Unit: "count", Better: higher, TCPOnly: true},
	{Name: "wire.tasks_failed", Unit: "count", Better: lower, TCPOnly: true},
	// the benchmark itself
	{Name: "harness.sample_ms", Unit: "ms", Better: lower},
	{Name: "harness.samples", Unit: "count", Better: lower},
	{Name: "harness.engine_unattributed_ms", Unit: "ms", Better: lower},
	{Name: "harness.cold_rep_s", Unit: "s", Better: lower},
	{Name: "harness.rep_spread_pct", Unit: "%", Better: lower},
	{Name: "harness.retained_heap_mb", Unit: "MB", Better: lower},
	{Name: "harness.total_alloc_mb", Unit: "MB", Better: lower},
	{Name: "harness.gc_cycles", Unit: "count", Better: lower},
	{Name: "harness.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "harness.spans", Unit: "count", Better: lower},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: lower},
}

// perLayerMetrics is what a traced run prints: the end-to-end metrics
// the gate cannot carry, then the layers'. Only tcp-loopback's run
// includes the metrics only it produces.
func perLayerMetrics(tcp bool) []metricDef {
	var out []metricDef
	for _, m := range append(append([]metricDef(nil), ownMetrics...), layerMetrics...) {
		if tcp || !m.TCPOnly {
			out = append(out, m)
		}
	}
	return out
}

// endToEndMetrics is the benchmark's own end-to-end battery: the gate's
// and the ones it cannot carry.
func endToEndMetrics() []metricDef {
	return append(append([]metricDef(nil), gateMetrics...), ownMetrics...)
}

func knownWorkload(name string) bool {
	return slices.ContainsFunc(workloadDefs, func(w workloadDef) bool { return w.Name == name })
}
