package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"hta/internal/core"
	"hta/internal/dag"
	"hta/internal/flow"
	"hta/internal/hpa"
	"hta/internal/metrics"
	"hta/internal/resources"
	"hta/internal/workload"
	"hta/internal/wq"
)

// StreamReport (S2) runs an open-loop diurnal arrival stream — tasks
// arriving over two hours with a sinusoidal rate — under HTA and
// HPA-20%. Batch workflows end; a stream never stops demanding, so
// this scenario exercises both directions of scaling repeatedly: the
// autoscaler must grow into each wave crest and release capacity in
// each trough.
type StreamReport struct {
	Rows  []SummaryRow
	Runs  map[string]*RunResult
	Tasks int
}

// RunHTAStream executes a timed arrival stream through HTA.
func RunHTAStream(name string, tasks []workload.TimedTask, opt HTAOptions) (*RunResult, error) {
	return simulate(name, opt.stack(), &htaScaler{cfg: opt.HTA}, &taskStream{tasks: tasks})
}

// RunHTAWorkflowStream executes timed workflow submissions — whole
// DAGs arriving over time at a long-lived master — through HTA.
// Admission shedding is incompatible with DAG semantics — a shed node
// would never complete — so opt.Admission is ignored here.
func RunHTAWorkflowStream(name string, wfs []workload.TimedWorkflow, opt HTAOptions) (*RunResult, error) {
	opt.Admission = wq.AdmissionPolicy{}
	return simulate(name, opt.stack(), &htaScaler{cfg: opt.HTA}, &workflowStream{wfs: wfs})
}

// taskStream submits timed tasks open-loop and ends the run once every
// arrival reached a terminal outcome — completed, quarantined, or shed
// at the admission cap — leaving the scaler as it stands. It records
// completed-task sojourn quantiles, timed from the master's submission.
type taskStream struct {
	tasks    []workload.TimedTask
	sojourns []time.Duration
}

func (s *taskStream) start(r *run) {
	terminal := 0
	outcome := func() {
		if terminal++; terminal == len(s.tasks) {
			r.finish()
		}
	}
	r.master.OnComplete(func(res wq.Result) {
		s.sojourns = append(s.sojourns, res.Task.FinishedAt.Sub(res.Task.SubmittedAt))
		outcome()
	})
	r.master.OnTaskFailed(func(wq.Task) { outcome() })
	r.master.OnRejected(func(wq.Task) { outcome() })
	for _, tt := range s.tasks {
		spec := tt.Spec
		r.eng.At(r.eng.Now().Add(tt.At), "stream-arrival", func() { r.target.Submit(spec) })
	}
	if len(s.tasks) == 0 {
		r.finish()
	}
}

func (s *taskStream) report(res *RunResult) error {
	q := metrics.DurationQuantiles(s.sojourns, 0.50, 0.99)
	res.SojournP50, res.SojournP99 = q[0], q[1]
	return nil
}

// timedTasks feeds a comparison one stream, in its declared copy to
// every scaler but HTA.
func timedTasks(decl, undecl []workload.TimedTask) func(scaler) (arrivals, error) {
	return func(sc scaler) (arrivals, error) {
		if declared(sc) {
			return &taskStream{tasks: decl}, nil
		}
		return &taskStream{tasks: undecl}, nil
	}
}

// workflowStream submits whole workflows at their arrival times. Each
// arrival becomes its own flow.Runner sharing the scheduler; node IDs
// are the globally unique task tags, so concurrent workflows cannot
// claim each other's completions. The run ends when every workflow's
// DAG is done.
type workflowStream struct {
	wfs     []workload.TimedWorkflow
	runners []*flow.Runner
}

func (s *workflowStream) start(r *run) {
	done := 0
	for _, wf := range s.wfs {
		wf := wf
		r.eng.At(r.eng.Now().Add(wf.At), "workflow-arrival", func() {
			if r.failed != nil {
				return
			}
			g, spec, err := workflowGraph(wf)
			if err != nil {
				r.fail(err)
				return
			}
			fr := flow.NewRunner(g, r.target, spec)
			fr.OnAllDone(func() {
				if done++; done == len(s.wfs) {
					r.finish()
				}
			})
			s.runners = append(s.runners, fr)
			fr.Start()
		})
	}
	if len(s.wfs) == 0 {
		r.finish()
	}
}

func (s *workflowStream) report(*RunResult) error {
	for _, fr := range s.runners {
		if err := fr.Err(); err != nil {
			return err
		}
	}
	return nil
}

// workflowGraph builds a dependency-free DAG for one workflow whose
// node IDs are the task tags — unique across workflows, which a
// shared master requires (flow matches completions by tag). Its
// SpecFunc reads a copy of the tasks by node index.
func workflowGraph(wf workload.TimedWorkflow) (*dag.Graph, flow.SpecFunc, error) {
	g := dag.NewGraph()
	for i, spec := range wf.Tasks {
		id := spec.Tag
		if id == "" {
			id = wf.Name + "/t" + strconv.Itoa(i)
		}
		if err := g.Add(dag.Node{ID: id, Category: spec.Category}); err != nil {
			return nil, nil, fmt.Errorf("experiments: workflow %s: %w", wf.Name, err)
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, nil, err
	}
	specs := slices.Clone(wf.Tasks)
	return g, func(n dag.Node) wq.TaskSpec { return specs[n.Index] }, nil
}

// Stream runs S2; the two scalers run concurrently.
func Stream(seed int64) (*StreamReport, error) {
	ps := workload.DefaultStream()
	ps.Seed = seed
	undeclared := ps.Tasks()
	ps.Declared = true
	tasks := ps.Tasks()
	kube := fig10Kube(seed)
	runs, err := compare(stackConfig{kube: &kube}, []entrant{
		{"HPA(20% CPU)", hpaScaler(hpa.Config{TargetCPUUtilization: 0.20, MinReplicas: 3, MaxReplicas: 60}, resources.Vector{}, 0)},
		{"HTA", &htaScaler{cfg: core.Config{MaxWorkers: 20}}},
	}, timedTasks(tasks, undeclared))
	if err != nil {
		return nil, err
	}
	rep := &StreamReport{Runs: make(map[string]*RunResult), Tasks: len(tasks)}
	for _, res := range runs {
		rep.Runs[res.Name] = res
		rep.Rows = append(rep.Rows, summaryRow(res.Name, res))
	}
	return rep, nil
}

// String renders supply series plus the summary table.
func (r *StreamReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stream S2 — diurnal arrival stream (%d tasks over 2h, rate 2-18/min)\n", r.Tasks)
	for _, name := range []string{"HPA(20% CPU)", "HTA"} {
		run := r.Runs[name]
		if run == nil {
			continue
		}
		fmt.Fprintf(&b, "\n%s supply (cores):\n%s", name, run.Account.Supply.ASCII(run.End, 12, 40))
	}
	fmt.Fprintf(&b, "\n%s", summaryTable("Stream summary", r.Rows))
	return b.String()
}
