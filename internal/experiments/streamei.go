package experiments

import (
	"fmt"
	"strings"
	"time"

	"hta/internal/core"
	"hta/internal/hpa"
	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/workload"
	"hta/internal/wq"
)

// StreamEIConfig parameterizes experiment E-I. DefaultStreamEIConfig
// is the full trace-driven day; SmokeStreamEIConfig is the compressed
// variant the tests and the golden pins run.
type StreamEIConfig struct {
	Seed int64
	// Trace is the per-task arrival process (HTA cells submit it
	// undeclared so the monitor measures the category; the HPA cell
	// gets a declared copy, since a bare master has no estimator).
	Trace workload.StreamParams
	// Kube is the shared cluster shape.
	Kube kubesim.Config
	// Admission bounds every cell's waiting queue identically, so
	// shed rates are comparable.
	Admission wq.AdmissionPolicy
	// Cycle is the HTA cells' DefaultCycle — deliberately long, so
	// the per-cycle cadence alone is too slow for the morning spike
	// and the panic path has a gap to close. A short cycle closes it
	// too: plain HTA at 30 s reads a p99 sojourn within −0.2…+4.8 %
	// of HTA-panic's at about half the waste (ROADMAP item 17).
	Cycle      time.Duration
	MaxWorkers int
	// Panic is the HTA-panic cell's policy (Enabled is forced on).
	Panic   core.PanicConfig
	HPA     hpa.Config
	Timeout time.Duration
}

// DefaultStreamEIConfig is E-I proper: a 24-hour diurnal trace with
// the 9:00 login storm, on a 40-node quota.
func DefaultStreamEIConfig(seed int64) StreamEIConfig {
	return StreamEIConfig{
		Seed:  seed,
		Trace: workload.DayTrace(seed),
		Kube: kubesim.Config{
			InitialNodes: 3,
			MinNodes:     1,
			MaxNodes:     40,
			Seed:         seed,
		},
		Admission:  wq.AdmissionPolicy{MaxWaiting: 300, BufferDepth: 60},
		Cycle:      3 * time.Minute,
		MaxWorkers: 40,
		Panic:      core.PanicConfig{Enabled: true},
		HPA: hpa.Config{
			TargetCPUUtilization: 0.20,
			MinReplicas:          3,
			MaxReplicas:          120,
		},
		Timeout: 30 * time.Hour,
	}
}

// SmokeStreamEIConfig compresses E-I to a two-hour trace with one
// sharp spike — the variant the determinism test and CI run. The
// shape keeps the property under test: the spike outruns the
// per-cycle cadence but fits inside the node quota, so reaction
// latency (panic vs cycle) dominates the sojourn tail.
func SmokeStreamEIConfig(seed int64) StreamEIConfig {
	return StreamEIConfig{
		Seed: seed,
		Trace: workload.StreamParams{
			Window:     2 * time.Hour,
			BasePerMin: 3,
			Amplitude:  0.3,
			Period:     2 * time.Hour,
			Bursts: []workload.Burst{
				{Start: 40 * time.Minute, Duration: 10 * time.Minute, Multiplier: 8},
			},
			Category: "smoke",
			Exec:     2 * time.Minute,
			Jitter:   0.15,
			CPUMilli: 870,
			MemMB:    2048,
			Seed:     seed,
		},
		Kube: kubesim.Config{
			InitialNodes:  3,
			MinNodes:      1,
			MaxNodes:      30,
			ProvisionMean: 60 * time.Second,
			Seed:          seed,
		},
		Admission:  wq.AdmissionPolicy{MaxWaiting: 40, BufferDepth: 10},
		Cycle:      150 * time.Second,
		MaxWorkers: 30,
		Panic:      core.PanicConfig{Enabled: true},
		HPA: hpa.Config{
			TargetCPUUtilization: 0.20,
			MinReplicas:          3,
			MaxReplicas:          90,
		},
		Timeout: 8 * time.Hour,
	}
}

// StreamEIRow is one autoscaler's cell of the E-I table.
type StreamEIRow struct {
	Autoscaler  string
	Submitted   int
	Completed   int
	Quarantined int
	Shed        int
	ShedRate    float64 // Shed / Submitted
	P50         time.Duration
	P99         time.Duration
	Actions     int // applied fleet resizes (thrash)
	Panics      int
	Waste       float64 // accumulated core·s
}

// StreamEIReport is experiment E-I: an open-system day of streaming
// arrivals with morning spikes under HPA, plain HTA, and HTA with the
// panic policy. The open-system accounting invariant — submitted =
// completed + quarantined + shed — is verified for every cell before
// the report is returned.
type StreamEIReport struct {
	Rows   []StreamEIRow
	Runs   map[string]*RunResult
	Tasks  int
	Window time.Duration
}

// StreamEI runs E-I on the full trace-driven day.
func StreamEI(seed int64) (*StreamEIReport, error) {
	return StreamEIWith(DefaultStreamEIConfig(seed))
}

// StreamEIWith runs E-I under an explicit configuration; the three
// cells run concurrently on one stack configuration.
func StreamEIWith(cfg StreamEIConfig) (*StreamEIReport, error) {
	decl := cfg.Trace
	decl.Declared = true
	declTasks := decl.Tasks()

	hta := core.Config{MaxWorkers: cfg.MaxWorkers, DefaultCycle: cfg.Cycle}
	panicky := hta
	panicky.Panic = cfg.Panic
	panicky.Panic.Enabled = true
	runs, err := compare(stackConfig{kube: &cfg.Kube, admission: cfg.Admission, timeout: cfg.Timeout}, []entrant{
		{"HPA", hpaScaler(cfg.HPA, resources.Vector{}, 0)},
		{"HTA", &htaScaler{cfg: hta}},
		{"HTA-panic", &htaScaler{cfg: panicky}},
	}, timedTasks(declTasks, cfg.Trace.Tasks()))
	if err != nil {
		return nil, err
	}
	rep := &StreamEIReport{Runs: make(map[string]*RunResult), Tasks: len(declTasks), Window: cfg.Trace.Window}
	for _, res := range runs {
		if err := rep.add(res); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// add verifies the open-system accounting invariant and appends the
// run's row.
func (r *StreamEIReport) add(res *RunResult) error {
	quarantined := res.Failures.Quarantined
	if got := res.Completed + quarantined + res.Shed; got != res.Submitted {
		return fmt.Errorf("experiments: %s accounting broken: submitted %d != completed %d + quarantined %d + shed %d",
			res.Name, res.Submitted, res.Completed, quarantined, res.Shed)
	}
	r.Runs[res.Name] = res
	shedRate := 0.0
	if res.Submitted > 0 {
		shedRate = float64(res.Shed) / float64(res.Submitted)
	}
	r.Rows = append(r.Rows, StreamEIRow{
		Autoscaler:  res.Name,
		Submitted:   res.Submitted,
		Completed:   res.Completed,
		Quarantined: quarantined,
		Shed:        res.Shed,
		ShedRate:    shedRate,
		P50:         res.SojournP50,
		P99:         res.SojournP99,
		Actions:     res.ScalingActions,
		Panics:      res.Panics,
		Waste:       res.AccumulatedWaste(),
	})
	return nil
}

// String renders the E-I table.
func (r *StreamEIReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stream E-I — open-system day (%d arrivals over %v, morning spikes)\n", r.Tasks, r.Window)
	fmt.Fprintf(&b, "%-10s %9s %9s %6s %8s %10s %10s %8s %7s %12s\n",
		"autoscaler", "submitted", "completed", "shed", "shed%", "p50", "p99", "actions", "panics", "waste core·s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9d %9d %6d %7.2f%% %10s %10s %8d %7d %12.0f\n",
			row.Autoscaler, row.Submitted, row.Completed, row.Shed, row.ShedRate*100,
			row.P50.Round(time.Second), row.P99.Round(time.Second),
			row.Actions, row.Panics, row.Waste)
	}
	return b.String()
}
