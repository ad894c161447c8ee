package experiments

import (
	"fmt"

	"hta/internal/core"
	"hta/internal/kubesim"
	"hta/internal/qpa"
	"hta/internal/resources"
)

// qpaScaler is the queue-proportional scaler over a WorkerSet of
// pod-sized workers; a zero pod is node-sized.
func qpaScaler(cfg qpa.Config, pod resources.Vector, replicas int) *workerSet {
	return &workerSet{pod: pod, replicas: replicas, maxReplicas: cfg.MaxReplicas,
		control: func(st *stack, set *kubesim.WorkerSet) (func() int, func() int) {
			c := qpa.New(st.cluster, set, st.master, cfg)
			return func() int { return c.LastDesired }, nil
		}}
}

// fig10QPA is the queue-proportional baseline of the multistage
// comparisons: node-sized workers that hold three one-core tasks each.
func fig10QPA() *workerSet {
	return qpaScaler(qpa.Config{TasksPerWorker: 3, MaxReplicas: 20}, resources.Vector{}, 3)
}

// AblationQueueScalerReport (A4) compares a KEDA-style
// queue-proportional scaler against HTA on the multistage workflow.
// The queue scaler knows the queue length (more than the HPA does)
// but neither per-category resource consumption nor the cluster's
// initialization time, and its scale-downs delete pods rather than
// draining them: it matches HTA's makespan by holding peak capacity
// through the stage dips, at the cost of HPA-like waste, and every
// WorkerSet shrink under load re-runs interrupted tasks.
type AblationQueueScalerReport struct {
	QPA  SummaryRow
	HTA  SummaryRow
	Runs map[string]*RunResult
	// QPARequeues counts task attempts beyond the first in the QPA
	// run — work lost to WorkerSet pod deletions.
	QPARequeues int
}

// AblationQueueScaler runs A4; the two scalers run concurrently.
func AblationQueueScaler(seed int64) (*AblationQueueScalerReport, error) {
	runs, err := compare(fig10Stack(seed), []entrant{
		{"QPA (queue/3)", fig10QPA()},
		{"HTA", &htaScaler{cfg: core.Config{MaxWorkers: 20}}},
	}, multistageBags(seed, [3]int{}))
	if err != nil {
		return nil, err
	}
	rep := &AblationQueueScalerReport{Runs: make(map[string]*RunResult)}
	qpaRes, htaRes := runs[0], runs[1]
	rep.Runs[qpaRes.Name] = qpaRes
	rep.QPA = summaryRow(qpaRes.Name, qpaRes)
	rep.QPARequeues = qpaRes.Requeues
	rep.Runs["HTA"] = htaRes
	rep.HTA = summaryRow("HTA", htaRes)
	return rep, nil
}

// String renders the comparison.
func (r *AblationQueueScalerReport) String() string {
	s := summaryTable("Ablation A4 — queue-proportional (KEDA-style) scaler vs HTA (multistage BLAST)",
		[]SummaryRow{r.QPA, r.HTA})
	return s + fmt.Sprintf("QPA interrupted and re-ran %d task dispatches; HTA drains and re-ran %d.\n",
		r.QPARequeues, r.Runs["HTA"].Requeues)
}
