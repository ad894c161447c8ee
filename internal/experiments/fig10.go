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

// SummaryRow is one autoscaler's outcome on a workload — the rows of
// the paper's Fig. 10c and Fig. 11c tables.
type SummaryRow struct {
	Autoscaler string
	Runtime    time.Duration
	Waste      float64 // accumulated core·s
	Shortage   float64 // accumulated core·s
}

// Fig10Report reproduces Fig. 10: the multistage BLAST workflow
// (stages of 200/34/164 tasks) under HPA-20 %, HPA-50 % and HTA on a
// cluster capped at 20 nodes (60 cores). Paper table: runtimes
// 2656/2480/3060 s; accumulated waste 51324/39353/9146 core·s;
// accumulated shortage 34813/66611/40680 core·s.
type Fig10Report struct {
	Rows        []SummaryRow
	Runs        map[string]*RunResult
	StageCounts [3]int
}

var multistageCategories = []string{"stage1", "stage2", "stage3"}

const fig10Timeout = 12 * time.Hour

func fig10Kube(seed int64) kubesim.Config {
	return kubesim.Config{
		InitialNodes:   3,
		MinNodes:       1,
		MaxNodes:       20,
		ScaleDownDelay: 10 * time.Minute,
		Seed:           seed,
	}
}

// fig10Stack is the cluster and deadline of the multistage comparisons.
func fig10Stack(seed int64) stackConfig {
	kube := fig10Kube(seed)
	return stackConfig{kube: &kube, timeout: fig10Timeout}
}

// fig10PodResources is the HPA worker-pod size of the multistage
// comparisons: one core, with memory for one alignment.
var fig10PodResources = resources.Vector{MilliCPU: 1000, MemoryMB: 4096, DiskMB: 20000}

// fig10HPA is the HPA baseline of the multistage comparisons: three
// one-core pods at first, at most 60 (20 nodes × 3 pods).
func fig10HPA(cfg hpa.Config) *workerSet {
	cfg.MinReplicas, cfg.MaxReplicas = 1, 60
	return hpaScaler(cfg, fig10PodResources, 3)
}

// multistage builds the multistage BLAST workflow; zero stages keep
// the paper's 200/34/164 tasks.
func multistage(seed int64, stages [3]int, declared bool) (Workload, error) {
	p := workload.DefaultMultistage()
	p.Seed = seed
	if stages != ([3]int{}) {
		p.StageCounts = stages
	}
	p.Declared = declared
	g, spec, err := p.Build()
	return Workload{Graph: g, Spec: spec}, err
}

// multistageBags feeds the multistage workflow to a comparison.
func multistageBags(seed int64, stages [3]int) func(scaler) (arrivals, error) {
	return func(sc scaler) (arrivals, error) {
		wl, err := multistage(seed, stages, declared(sc))
		return &bag{wl: wl}, err
	}
}

// Fig10 runs the three autoscalers over the multistage workflow.
func Fig10(seed int64) (*Fig10Report, error) {
	cfg := fig10Stack(seed)
	cfg.categories = multistageCategories
	runs, err := compare(cfg, []entrant{
		{"HPA(20% CPU)", fig10HPA(hpa.Config{TargetCPUUtilization: 0.20})},
		{"HPA(50% CPU)", fig10HPA(hpa.Config{TargetCPUUtilization: 0.50})},
		{"HTA", &htaScaler{cfg: core.Config{MaxWorkers: 20}}},
	}, multistageBags(seed, [3]int{}))
	if err != nil {
		return nil, err
	}
	rep := &Fig10Report{Runs: make(map[string]*RunResult), StageCounts: workload.DefaultMultistage().StageCounts}
	for _, res := range runs {
		rep.Runs[res.Name] = res
		rep.Rows = append(rep.Rows, summaryRow(res.Name, res))
	}
	return rep, nil
}

func summaryRow(name string, res *RunResult) SummaryRow {
	return SummaryRow{
		Autoscaler: name,
		Runtime:    res.Runtime,
		Waste:      res.AccumulatedWaste(),
		Shortage:   res.AccumulatedShortage(),
	}
}

func summaryTable(title string, rows []SummaryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %10s %18s %18s\n", "Autoscaler", "Runtime", "Accum. Waste", "Accum. Shortage")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-14s %9.0fs %12.0f core-s %12.0f core-s\n",
			row.Autoscaler, row.Runtime.Seconds(), row.Waste, row.Shortage)
	}
	return b.String()
}

// String renders the stage profile, the supply/demand series and the
// summary table.
func (r *Fig10Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10a — stage profile (tasks per stage: %d/%d/%d)\n",
		r.StageCounts[0], r.StageCounts[1], r.StageCounts[2])
	if hta := r.Runs["HTA"]; hta != nil && hta.CategoryOutstanding != nil {
		for _, cat := range multistageCategories {
			if s := hta.CategoryOutstanding[cat]; s != nil {
				fmt.Fprintf(&b, "\n%s outstanding tasks (HTA run):\n%s", cat, s.ASCII(hta.End, 8, 40))
			}
		}
	}
	fmt.Fprintf(&b, "\nFig. 10b — resource supply (RS) and in-use (RIU), cores:\n")
	for _, name := range []string{"HPA(20% CPU)", "HPA(50% CPU)", "HTA"} {
		run := r.Runs[name]
		if run == nil {
			continue
		}
		fmt.Fprintf(&b, "\n%s supply:\n%s", name, run.Account.Supply.ASCII(run.End, 10, 40))
		fmt.Fprintf(&b, "%s in-use:\n%s", name, run.Account.InUse.ASCII(run.End, 10, 40))
	}
	fmt.Fprintf(&b, "\n%s", summaryTable("Fig. 10c — Blast workflow performance summary", r.Rows))
	return b.String()
}
