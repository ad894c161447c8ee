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
)

// IOScaleConfig parameterizes experiment E-H: the Fig. 11 I/O-bound
// workload swept across fleet sizes far beyond the paper's 20-node
// cluster. Each fleet size W runs two cells — HTA with a W-worker
// quota, and an HPA baseline whose CPU target the workload never
// reaches — over TasksPerWorker×W tasks that each stream input from
// the master. The sweep exercises the data-plane scaling work: tens
// of thousands of concurrent transfers on one link and dispatch
// passes over a 40k-task queue.
type IOScaleConfig struct {
	// Workers are the fleet quotas to sweep (default 1000, 5000,
	// 10000).
	Workers []int
	// TasksPerWorker sizes each cell's bag at TasksPerWorker×W tasks
	// (default 4). HTA workers are node-sized (3 one-core slots), so
	// 4W tasks keep a W-worker fleet saturated for more than one wave.
	TasksPerWorker int
	// ExecMean and ExecJitter shape the dd task durations (defaults:
	// the Fig. 11 calibration, 100 s ± 10 %).
	ExecMean   time.Duration
	ExecJitter float64
	// InputMB and OutputMB are the per-task transfer sizes (defaults
	// 25 and 1).
	InputMB  float64
	OutputMB float64
	// LinkMBps and PerTransfer describe the master's egress: a fat
	// shared link with a per-stream cap (defaults 10000 and 100).
	// Multiplicative stream contention is deliberately off — the
	// 0.96^n model collapses at 10k streams; the per-transfer cap and
	// fair sharing carry the contention story at this scale.
	LinkMBps    float64
	PerTransfer float64
	// HPATarget is the baseline's CPU target (default 0.20; the tasks
	// run at ≈15 %, so the HPA never scales — the paper's point).
	HPATarget float64
	Seed      int64
}

// DefaultIOScale returns the E-H configuration: fleets of 1k/5k/10k
// workers, four tasks per worker, 25 MB in / 1 MB out per task over a
// 10 GB/s link capped at 100 MB/s per stream.
func DefaultIOScale() IOScaleConfig {
	return IOScaleConfig{
		Workers:        []int{1000, 5000, 10000},
		TasksPerWorker: 4,
		ExecMean:       workload.IOBoundExec,
		ExecJitter:     0.10,
		InputMB:        25,
		OutputMB:       1,
		LinkMBps:       10000,
		PerTransfer:    100,
		HPATarget:      0.20,
		Seed:           1,
	}
}

// IOScaleRow is one cell of the E-H sweep.
type IOScaleRow struct {
	Scaler      string // "HTA" or "HPA(20%)"
	Workers     int    // fleet quota, the sweep axis
	Tasks       int
	Runtime     time.Duration
	Completed   int
	Submitted   int
	PeakWorkers int     // maximum concurrently connected workers
	AvgMBps     float64 // link average bandwidth while busy
	Waste       float64 // accumulated core·s
	Shortage    float64 // accumulated core·s
}

// IOScaleReport is the E-H result: one row per (scaler, fleet) cell.
type IOScaleReport struct {
	Config IOScaleConfig
	Rows   []IOScaleRow
	Runs   map[string]*RunResult
}

// IOScaleEH runs E-H with the default configuration.
func IOScaleEH(seed int64) (*IOScaleReport, error) {
	cfg := DefaultIOScale()
	cfg.Seed = seed
	return IOScaleEHWith(cfg)
}

// IOScaleEHScale runs the E-H extension cells unlocked by the
// int64 event engine: W ∈ {50 000, 100 000} workers (up to 400k
// tasks). The HPA baselines at these fleets simulate months of
// virtual time, so the sweep lives behind `htabench -runs ioscale`
// rather than the default set.
func IOScaleEHScale(seed int64) (*IOScaleReport, error) {
	cfg := DefaultIOScale()
	cfg.Workers = []int{50000, 100000}
	cfg.Seed = seed
	return IOScaleEHWith(cfg)
}

// ioScaleCell is one (scaler, fleet-size) combination.
type ioScaleCell struct {
	name    string
	hta     bool
	workers int
}

func (c IOScaleConfig) withDefaults() IOScaleConfig {
	def := DefaultIOScale()
	if len(c.Workers) == 0 {
		c.Workers = def.Workers
	}
	if c.TasksPerWorker == 0 {
		c.TasksPerWorker = def.TasksPerWorker
	}
	if c.ExecMean == 0 {
		c.ExecMean = def.ExecMean
	}
	if c.InputMB == 0 {
		c.InputMB = def.InputMB
	}
	if c.OutputMB == 0 {
		c.OutputMB = def.OutputMB
	}
	if c.LinkMBps == 0 {
		c.LinkMBps = def.LinkMBps
	}
	if c.PerTransfer == 0 {
		c.PerTransfer = def.PerTransfer
	}
	if c.HPATarget == 0 {
		c.HPATarget = def.HPATarget
	}
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	return c
}

// ioScaleSampleEvery scales the sampler period to the expected cell
// runtime: every tick walks the waiting queue, so a month-long
// pinned-HPA cell must not tick every 5 s.
func ioScaleSampleEvery(expected time.Duration) time.Duration {
	every := expected / 1500
	if every < SampleInterval {
		every = SampleInterval
	}
	return every
}

// IOScaleEHWith runs the sweep with an explicit configuration; tests
// use shrunken fleets and durations.
func IOScaleEHWith(cfg IOScaleConfig) (*IOScaleReport, error) {
	cfg = cfg.withDefaults()
	var cells []ioScaleCell
	for _, w := range cfg.Workers {
		cells = append(cells,
			ioScaleCell{name: fmt.Sprintf("HTA/W=%d", w), hta: true, workers: w},
			ioScaleCell{name: fmt.Sprintf("HPA(%d%%)/W=%d", int(cfg.HPATarget*100), w), workers: w},
		)
	}
	results := make([]*RunResult, len(cells))
	err := Parallel(len(cells), func(i int) error {
		res, err := runIOScaleCell(cfg, cells[i])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &IOScaleReport{Config: cfg, Runs: make(map[string]*RunResult, len(cells))}
	for i, cell := range cells {
		res := results[i]
		rep.Runs[cell.name] = res
		scaler := "HTA"
		if !cell.hta {
			scaler = fmt.Sprintf("HPA(%d%%)", int(cfg.HPATarget*100))
		}
		rep.Rows = append(rep.Rows, IOScaleRow{
			Scaler:      scaler,
			Workers:     cell.workers,
			Tasks:       cfg.TasksPerWorker * cell.workers,
			Runtime:     res.Runtime,
			Completed:   res.Completed,
			Submitted:   res.Submitted,
			PeakWorkers: int(res.Workers.Max()),
			AvgMBps:     res.AvgBandwidthMBps,
			Waste:       res.AccumulatedWaste(),
			Shortage:    res.AccumulatedShortage(),
		})
	}
	return rep, nil
}

func runIOScaleCell(cfg IOScaleConfig, cell ioScaleCell) (*RunResult, error) {
	n := cfg.TasksPerWorker * cell.workers
	p := workload.DefaultIOBound()
	p.N = n
	p.ExecMean = cfg.ExecMean
	p.ExecJitter = cfg.ExecJitter
	p.InputMB = cfg.InputMB
	p.OutputMB = cfg.OutputMB
	p.Seed = cfg.Seed
	p.Declared = !cell.hta // HTA measures the category; HPA declares a slot
	wl, err := Flat(p.Specs())
	if err != nil {
		return nil, err
	}
	kube := kubesim.Config{
		InitialNodes:   3,
		MinNodes:       1,
		MaxNodes:       cell.workers,
		ScaleDownDelay: 10 * time.Minute,
		Seed:           cfg.Seed,
	}
	st := stackConfig{
		kube:        &kube,
		linkMBps:    cfg.LinkMBps,
		perTransfer: cfg.PerTransfer,
	}
	var sc scaler
	var expected time.Duration
	if cell.hta {
		// Saturated waves of node-sized workers plus the autoscaler
		// ramp; the ×4 margin absorbs the transfer-bound tail.
		expected = time.Duration(cfg.TasksPerWorker/3+1)*cfg.ExecMean*4 + time.Hour
		st.timeout = expected
		sc = &htaScaler{cfg: core.Config{MaxWorkers: cell.workers}}
	} else {
		// The HPA stays pinned at MinReplicas: task CPU (≈15 %) never
		// crosses the target, so the fleet works the whole bag serially,
		// three tasks at a time — expected runtime N×ExecMean/3.
		expected = time.Duration(n/3+1) * cfg.ExecMean
		st.timeout = 2*expected + time.Hour
		sc = hpaScaler(hpa.Config{
			TargetCPUUtilization: cfg.HPATarget,
			MinReplicas:          3,
			MaxReplicas:          cell.workers,
		}, resources.Vector{MilliCPU: 1000, MemoryMB: 1024, DiskMB: 10000}, 3)
	}
	st.sampleEvery = ioScaleSampleEvery(expected)
	return simulate(cell.name, st, sc, &bag{wl: wl})
}

// String renders the E-H summary table.
func (r *IOScaleReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-H — I/O-bound workload at fleet scale (%d MB in / %d MB out per task, %.0f MB/s link, %.0f MB/s per stream)\n",
		int(r.Config.InputMB), int(r.Config.OutputMB), r.Config.LinkMBps, r.Config.PerTransfer)
	fmt.Fprintf(&b, "%-10s %8s %8s %12s %12s %8s %10s %14s %16s\n",
		"Scaler", "Fleet", "Tasks", "Runtime", "Done", "Peak", "AvgMB/s", "Waste", "Shortage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %8d %8d %11.0fs %6d/%-5d %8d %10.1f %10.0f core-s %10.0f core-s\n",
			row.Scaler, row.Workers, row.Tasks, row.Runtime.Seconds(),
			row.Completed, row.Submitted, row.PeakWorkers, row.AvgMBps, row.Waste, row.Shortage)
	}
	return b.String()
}
