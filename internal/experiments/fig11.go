package experiments

import (
	"fmt"
	"strings"
	"time"

	"hta/internal/core"
	"hta/internal/hpa"
	"hta/internal/resources"
	"hta/internal/workload"
)

// Fig11Report reproduces Fig. 11: 200 I/O-intensive dd tasks whose
// CPU load stays under 20 %. HPA never scales the cluster (usage is
// below every reasonable CPU target), while HTA — informed by the
// processors the tasks actually occupy — scales to the quota. Paper
// table: runtimes 6670/7230/1823 s; accumulated waste 159/82/2028
// core·s; accumulated shortage 337737/357640/31840 core·s.
type Fig11Report struct {
	Rows []SummaryRow
	Runs map[string]*RunResult
}

const fig11Timeout = 12 * time.Hour

// Fig11 runs the three autoscalers over the I/O-bound workload.
func Fig11(seed int64) (*Fig11Report, error) {
	kube := fig10Kube(seed)
	hpaAt := func(target float64) *workerSet {
		return hpaScaler(hpa.Config{
			TargetCPUUtilization: target,
			MinReplicas:          3, // the paper's initial 3-node floor
			MaxReplicas:          60,
		}, resources.Vector{MilliCPU: 1000, MemoryMB: 1024, DiskMB: 10000}, 3)
	}
	runs, err := compare(stackConfig{kube: &kube, timeout: fig11Timeout}, []entrant{
		{"HPA(20% CPU)", hpaAt(0.20)},
		{"HPA(50% CPU)", hpaAt(0.50)},
		{"HTA", &htaScaler{cfg: core.Config{MaxWorkers: 20}}},
	}, func(sc scaler) (arrivals, error) {
		p := workload.DefaultIOBound()
		p.Seed = seed
		p.Declared = declared(sc) // one processor per task
		wl, err := Flat(p.Specs())
		return &bag{wl: wl}, err
	})
	if err != nil {
		return nil, err
	}
	rep := &Fig11Report{Runs: make(map[string]*RunResult)}
	for _, res := range runs {
		rep.Runs[res.Name] = res
		rep.Rows = append(rep.Rows, summaryRow(res.Name, res))
	}
	return rep, nil
}

// String renders the supply/demand series and the summary table.
func (r *Fig11Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11b — I/O-bound workload, resource supply (RS) and in-use (RIU), cores:\n")
	for _, name := range []string{"HPA(20% CPU)", "HPA(50% CPU)", "HTA"} {
		run := r.Runs[name]
		if run == nil {
			continue
		}
		fmt.Fprintf(&b, "\n%s supply:\n%s", name, run.Account.Supply.ASCII(run.End, 10, 40))
		fmt.Fprintf(&b, "%s shortage:\n%s", name, run.Account.Shortage.ASCII(run.End, 10, 40))
	}
	fmt.Fprintf(&b, "\n%s", summaryTable("Fig. 11c — I/O-bound workflow performance summary", r.Rows))
	return b.String()
}
