package experiments

import (
	"fmt"
	"strings"
	"time"

	"hta/internal/core"
	"hta/internal/hpa"
	"hta/internal/workload"
)

// AblationFixedCycleReport (A1) isolates the initialization-time
// feedback: full HTA plans each cycle with the live-measured
// provisioning latency; the ablated variant assumes a fixed (too
// short) cycle, so it keeps re-planning before requested resources
// arrive.
type AblationFixedCycleReport struct {
	Full      SummaryRow
	FixedFast SummaryRow // assumes 30 s provisioning (optimistic)
	FixedSlow SummaryRow // assumes 600 s provisioning (pessimistic)
	Runs      map[string]*RunResult
}

// AblationFixedCycle runs A1 on the multistage workflow. The three
// HTA variants run concurrently through the parallel harness.
func AblationFixedCycle(seed int64) (*AblationFixedCycleReport, error) {
	runs, err := compare(fig10Stack(seed), []entrant{
		{"HTA (measured init time)", &htaScaler{cfg: core.Config{MaxWorkers: 20}}},
		{"HTA (fixed 30s cycle)", &htaScaler{cfg: core.Config{
			MaxWorkers:          20,
			DisableInitFeedback: true,
			InitTimeFallback:    30 * time.Second,
		}}},
		{"HTA (fixed 600s cycle)", &htaScaler{cfg: core.Config{
			MaxWorkers:          20,
			DisableInitFeedback: true,
			InitTimeFallback:    600 * time.Second,
		}}},
	}, multistageBags(seed, [3]int{}))
	if err != nil {
		return nil, err
	}
	rep := &AblationFixedCycleReport{Runs: make(map[string]*RunResult)}
	for _, res := range runs {
		rep.Runs[res.Name] = res
	}
	rep.Full = summaryRow(runs[0].Name, runs[0])
	rep.FixedFast = summaryRow(runs[1].Name, runs[1])
	rep.FixedSlow = summaryRow(runs[2].Name, runs[2])
	return rep, nil
}

// String renders the comparison.
func (r *AblationFixedCycleReport) String() string {
	return summaryTable("Ablation A1 — initialization-time feedback (multistage BLAST)",
		[]SummaryRow{r.Full, r.FixedFast, r.FixedSlow})
}

// AblationNoCategoriesReport (A2) isolates category-based resource
// estimation: without it, every unknown task runs exclusively on a
// whole node-sized worker for the entire run.
type AblationNoCategoriesReport struct {
	Full     SummaryRow
	Disabled SummaryRow
	FullUtil float64
	DisUtil  float64
	Runs     map[string]*RunResult
}

// AblationNoCategories runs A2 on a flat BLAST bag with unknown
// requirements; the two variants run concurrently.
func AblationNoCategories(seed int64) (*AblationNoCategoriesReport, error) {
	runs, err := compare(fig10Stack(seed), []entrant{
		{"HTA (category estimation)", &htaScaler{cfg: core.Config{MaxWorkers: 20}}},
		{"HTA (no estimation)", &htaScaler{cfg: core.Config{
			MaxWorkers:       20,
			DisableEstimator: true,
		}}},
	}, func(scaler) (arrivals, error) {
		p := workload.DefaultBlastFlat(120)
		p.Seed = seed
		p.Declared = false
		wl, err := Flat(p.Specs())
		return &bag{wl: wl}, err
	})
	if err != nil {
		return nil, err
	}
	rep := &AblationNoCategoriesReport{Runs: make(map[string]*RunResult)}
	for _, res := range runs {
		rep.Runs[res.Name] = res
	}
	rep.Full, rep.FullUtil = summaryRow(runs[0].Name, runs[0]), runs[0].MeanCPUUtil
	rep.Disabled, rep.DisUtil = summaryRow(runs[1].Name, runs[1]), runs[1].MeanCPUUtil
	return rep, nil
}

// String renders the comparison.
func (r *AblationNoCategoriesReport) String() string {
	var b strings.Builder
	b.WriteString(summaryTable("Ablation A2 — category resource estimation (flat BLAST, unknown reqs)",
		[]SummaryRow{r.Full, r.Disabled}))
	fmt.Fprintf(&b, "CPU utilization: with estimation %.1f%%, without %.1f%%\n",
		r.FullUtil*100, r.DisUtil*100)
	return b.String()
}

// AblationHPAStabilizationReport (A3) sweeps the HPA scale-down
// stabilization window on the multistage workflow — the knob the
// paper identifies as impossible to tune without re-running the
// workload.
type AblationHPAStabilizationReport struct {
	Rows []SummaryRow
	Runs map[string]*RunResult
}

// AblationHPAStabilization runs A3; the three stabilization windows
// run concurrently.
func AblationHPAStabilization(seed int64) (*AblationHPAStabilizationReport, error) {
	var entrants []entrant
	for _, w := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute} {
		entrants = append(entrants, entrant{fmt.Sprintf("HPA-20%% (stab %v)", w),
			fig10HPA(hpa.Config{TargetCPUUtilization: 0.20, ScaleDownStabilization: w})})
	}
	runs, err := compare(fig10Stack(seed), entrants, multistageBags(seed, [3]int{}))
	if err != nil {
		return nil, err
	}
	rep := &AblationHPAStabilizationReport{Runs: make(map[string]*RunResult)}
	for _, res := range runs {
		rep.Runs[res.Name] = res
		rep.Rows = append(rep.Rows, summaryRow(res.Name, res))
	}
	return rep, nil
}

// String renders the sweep.
func (r *AblationHPAStabilizationReport) String() string {
	return summaryTable("Ablation A3 — HPA scale-down stabilization window (multistage BLAST)", r.Rows)
}
