package experiments

import (
	"fmt"
	"strings"
	"time"

	"hta/internal/core"
	"hta/internal/hpa"
)

// SweepInitLatencyReport (S1) sweeps the cloud's node-provisioning
// latency and runs the multistage workflow under HPA-20% and HTA at
// each point. The init time is HTA's third signal: as provisioning
// gets slower, a scaler that plans around the measured latency keeps
// its efficiency edge, while both scalers' runtimes stretch with the
// cloud. (On a hypothetical instant cloud the signal is worthless —
// the sweep quantifies when it starts paying.)
type SweepInitLatencyReport struct {
	Rows []SweepRow
}

// SweepRow is one (latency, autoscaler) outcome.
type SweepRow struct {
	ProvisionMean time.Duration
	Autoscaler    string
	Runtime       time.Duration
	Waste         float64
	Shortage      float64
}

// SweepInitLatency runs S1 over the given provisioning means
// (defaults: 30 s, 140 s, 400 s). At each point HPA-20% and HTA run
// concurrently on one cluster configuration; rows come per mean: HPA
// row, then HTA row.
func SweepInitLatency(seed int64, means ...time.Duration) (*SweepInitLatencyReport, error) {
	if len(means) == 0 {
		means = []time.Duration{30 * time.Second, 140 * time.Second, 400 * time.Second}
	}
	rep := &SweepInitLatencyReport{}
	for _, mean := range means {
		cfg := fig10Stack(seed)
		cfg.kube.ProvisionMean = mean
		cfg.kube.ProvisionStdDev = time.Duration(float64(mean) * 0.03)
		cfg.kube.ProvisionMin = mean / 4
		runs, err := compare(cfg, []entrant{
			{"HPA-20%", fig10HPA(hpa.Config{TargetCPUUtilization: 0.20})},
			{"HTA", &htaScaler{cfg: core.Config{MaxWorkers: 20}}},
		}, multistageBags(seed, [3]int{}))
		if err != nil {
			return nil, err
		}
		for _, res := range runs {
			rep.Rows = append(rep.Rows, SweepRow{
				ProvisionMean: mean, Autoscaler: res.Name,
				Runtime: res.Runtime, Waste: res.AccumulatedWaste(), Shortage: res.AccumulatedShortage(),
			})
		}
	}
	return rep, nil
}

// String renders the sweep table.
func (r *SweepInitLatencyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep S1 — node-provisioning latency (multistage BLAST)\n")
	fmt.Fprintf(&b, "%-12s %-10s %10s %16s %16s\n", "Provision", "Autoscaler", "Runtime", "Waste", "Shortage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-10s %9.0fs %11.0f core-s %11.0f core-s\n",
			row.ProvisionMean, row.Autoscaler, row.Runtime.Seconds(), row.Waste, row.Shortage)
	}
	return b.String()
}
