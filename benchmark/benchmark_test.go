package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"hta/internal/experiments"
	"hta/internal/metrics"
	"hta/internal/wq"
)

// toySizes shrinks every workload so that the whole suite runs in a
// second or two; the wiring under test is the full-size one.
func toySizes() sizes {
	return sizes{
		storm:    stormParams{workers: 50, tasks: 500},
		workflow: workflowParams{stages: 2, width: 40, quotaNodes: 10},
		io:       ioParams{workers: 10},
		stream: streamParams{
			rate:       1,
			window:     2 * time.Hour,
			quotaNodes: 10,
			admission:  wq.AdmissionPolicy{MaxWaiting: 400, BufferDepth: 100},
		},
		tcp: tcpParams{workers: 2, bagTasks: 40, rttTasks: 20},
	}
}

var simNames = []string{"dispatch-storm", "workflow-hta", "io-fleet", "stream-day"}

func layerNames() map[string]bool {
	names := make(map[string]bool)
	for _, m := range perLayerMetrics(true) {
		names[m.Name] = true
	}
	return names
}

// Every simulated workload, run twice, simulates the identical thing,
// and a traced rep simulates what an untraced one does.
func TestSimWorkloadsRepeatAndTraceChangesNothing(t *testing.T) {
	known := layerNames()
	for _, name := range simNames {
		w := toySizes().sim(name)
		first, err := simRep(w, 1, newTracer(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := first.sim.check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		second, err := simRep(w, 1, newTracer(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if second.sim != first.sim {
			t.Errorf("%s: second rep simulated %+v, first %+v", name, second.sim, first.sim)
		}
		tr := newTracer(true)
		traced, err := simRep(w, 1, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if traced.sim != first.sim {
			t.Errorf("%s: traced rep simulated %+v, untraced %+v", name, traced.sim, first.sim)
		}
		if first.sim.Events == 0 || first.sim.MakespanS <= 0 {
			t.Errorf("%s: nothing simulated: %+v", name, first.sim)
		}
		other, err := simRep(w, 2, newTracer(false))
		if err != nil {
			t.Fatalf("%s seed 2: %v", name, err)
		}
		if other.sim == first.sim {
			t.Errorf("%s: seed 2 simulated exactly what seed 1 did; the seed does not reach the generator", name)
		}
		for key := range traced.layer {
			if !known[key] {
				t.Errorf("%s: traced rep reports %q, which spec.go does not list", name, key)
			}
		}
		checkSpans(t, name, tr)
	}
}

// checkSpans verifies the trace's accounting: engine.run's self time
// plus the child spans the benchmark owns add up to the span.
func checkSpans(t *testing.T, name string, tr *tracer) {
	t.Helper()
	run := -1
	for i, s := range tr.spans {
		if s.end < s.start {
			t.Errorf("%s: span %q was never ended", name, s.name)
		}
		if s.name == "engine.run" {
			run = i
		}
	}
	if run < 0 {
		t.Fatalf("%s: no engine.run span", name)
	}
	var children time.Duration
	for _, s := range tr.spans {
		if int(s.parent) == run {
			children += s.end - s.start
		}
	}
	tot := tr.totals()["engine.run"]
	if got := tot.self + children; got != tot.total {
		t.Errorf("%s: engine.run self %v + children %v = %v, span %v", name, tot.self, children, got, tot.total)
	}
	if root := tr.spans[0]; root.name != "run" || root.parent != -1 {
		t.Errorf("%s: first span is %+v, want the root", name, root)
	}
}

// htaOptions is the cell's configuration as experiments.RunHTA takes it.
func htaOptions(c cellConfig) experiments.HTAOptions {
	return experiments.HTAOptions{
		Kube:        c.kube,
		HTA:         c.core,
		LinkMBps:    c.linkMBps,
		PerTransfer: c.perTransferMBps,
		Admission:   c.admission,
		Timeout:     c.timeout,
	}
}

// The benchmark's own wiring of the bags is experiments.RunHTA's.
func TestBagWiringReproducesRunHTA(t *testing.T) {
	sz := toySizes()
	for name, b := range map[string]htaBag{"workflow-hta": sz.workflow, "io-fleet": sz.io} {
		mine, err := simRep(b.(simWorkload), 3, newTracer(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		l, err := b.load(3, newTracer(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := experiments.RunHTA(name, experiments.Workload{Graph: l.g, Spec: l.spec}, htaOptions(b.cellConfig()))
		if err != nil {
			t.Fatalf("%s: RunHTA: %v", name, err)
		}
		got := mine.sim
		if got.MakespanS != ref.Runtime.Seconds() || got.WasteCoreS != ref.AccumulatedWaste() ||
			got.ShortageCoreS != ref.AccumulatedShortage() || got.Completed != ref.Completed {
			t.Errorf("%s: benchmark wiring gives makespan %v waste %v shortage %v completed %d; RunHTA gives %v %v %v %d",
				name, got.MakespanS, got.WasteCoreS, got.ShortageCoreS, got.Completed,
				ref.Runtime.Seconds(), ref.AccumulatedWaste(), ref.AccumulatedShortage(), ref.Completed)
		}
	}
}

// The benchmark's own wiring of the stream is experiments.RunHTAStream's.
// RunHTAStream times sojourn from the master's SubmittedAt; the
// benchmark, from the due arrival, which is earlier for the tasks HTA
// holds back during warm-up. The test collects the former too.
func TestStreamWiringReproducesRunHTAStream(t *testing.T) {
	p := toySizes().stream
	prep, err := p.setup(3, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	defer prep.c.stop()
	var fromSubmit []time.Duration
	prep.c.master.OnComplete(func(r wq.Result) {
		fromSubmit = append(fromSubmit, r.Task.FinishedAt.Sub(r.Task.SubmittedAt))
	})
	prep.start()
	prep.c.run()
	got := prep.c.simResult(prep.submitted, *prep.sojourns)

	ref, err := experiments.RunHTAStream("stream-day", p.trace(3).Tasks(), htaOptions(p.cellConfig()))
	if err != nil {
		t.Fatalf("RunHTAStream: %v", err)
	}
	q := metrics.DurationQuantiles(fromSubmit, 0.50, 0.99)
	if got.MakespanS != ref.Runtime.Seconds() || got.WasteCoreS != ref.AccumulatedWaste() ||
		got.ShortageCoreS != ref.AccumulatedShortage() || got.Completed != ref.Completed ||
		got.Shed != ref.Shed || q[0] != ref.SojournP50 || q[1] != ref.SojournP99 {
		t.Errorf("benchmark wiring gives makespan %v waste %v shortage %v completed %d shed %d p50 %v p99 %v; RunHTAStream gives %v %v %v %d %d %v %v",
			got.MakespanS, got.WasteCoreS, got.ShortageCoreS, got.Completed, got.Shed, q[0], q[1],
			ref.Runtime.Seconds(), ref.AccumulatedWaste(), ref.AccumulatedShortage(), ref.Completed, ref.Shed,
			ref.SojournP50, ref.SojournP99)
	}
	if due := metrics.DurationQuantile(*prep.sojourns, 0.999); due < q[1] {
		t.Errorf("sojourn from the due arrival has p99.9 %v, below the p99 %v timed from submission", due, q[1])
	}
}

// A whole run at toy size, both ways: the result line carries exactly
// the metrics BENCHMARK.json promises for that mode.
func TestRunProducesContractLine(t *testing.T) {
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 1, seconds: 0.01, trace: traced}
			rec, tr, err := runWorkload(o, toySizes())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v attempted %d failed %d problems %v",
					w.Name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			if (tr != nil) != traced {
				t.Errorf("%s traced=%v: tracer %v", w.Name, traced, tr)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]value
			}
			if err := json.Unmarshal([]byte(resultLine(rec)), &line); err != nil {
				t.Fatal(err)
			}
			want := gateMetrics
			if traced {
				want = perLayerMetrics(w.Ungated)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the line, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s on the line: %+v, present %v", w.Name, traced, m.Name, v, ok)
				}
				if !traced && !w.Ungated && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
			for key := range rec.PerLayer {
				if !layerNames()[key] {
					t.Errorf("%s: run reports %q, which spec.go does not list", w.Name, key)
				}
			}
		}
	}
}

func TestTraceOutIsChromeJSON(t *testing.T) {
	tr := newTracer(true)
	if _, err := simRep(toySizes().io, 1, tr); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.json"
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string
		Ph   string
		Ts   float64
		Dur  float64
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(events) != len(tr.spans) || events[0].Name != "run" || events[0].Ph != "X" {
		t.Errorf("%d events for %d spans, first %+v", len(events), len(tr.spans), events[0])
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json at the root of the repository carries exactly the
// names, units, directions and bounds of spec.go.
func TestSpecEqualsBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Command) != 2 || file.Command[0] != "bash" || file.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", file.Command)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	var gated []workloadDef
	for _, w := range workloadDefs {
		if !w.Ungated {
			gated = append(gated, w)
		}
	}
	if len(file.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in spec.go", len(file.Workloads), len(gated))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range gated {
		if file.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go %+v", i, file.Workloads[i], w)
		}
		unique(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range want {
			if !bounded {
				m.Bound = 0 // per-layer metrics carry no bound in the file
			}
			if got[i] != m {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, spec.go %+v", kind, i, got[i], m)
			}
			unique(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
			}
			if m.Better != higher && m.Better != lower {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("metric %s: bound %v", m.Name, m.Bound)
			}
		}
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the contract's alphabet", w.Name)
		}
	}
	for _, m := range perLayerMetrics(true) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q (%q) is outside the contract's alphabet", m.Name, m.Unit)
		}
	}
	compare("end-to-end", file.EndToEnd, gateMetrics, true)
	compare("per-layer", file.PerLayer, perLayerMetrics(false), false)
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(file.PerLayer), len(file.EndToEnd))
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "dispatch-strom"},
		{"-workload", "io-fleet", "-seed", "seven"},
		{"-workload", "io-fleet", "-seed", "0"},
		{"-workload", "io-fleet", "-trace", "2"},
		{"-workload", "io-fleet", "-trace-out", "x.json"},
		{"-workload", "all", "-trace", "1", "-trace-out", "x.json"},
		{"-workload", "io-fleet", "stray"},
		{"-compare", "one.jsonl"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		for _, w := range workloadDefs {
			if !strings.Contains(stderr.String(), w.Name) {
				t.Errorf("%v: usage does not list workload %s:\n%s", args, w.Name, stderr.String())
			}
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: a usage error printed a result: %s", args, stdout.String())
		}
	}
}

func TestVerdict(t *testing.T) {
	tasks := gateMetrics[0] // tasks_per_s, higher is better, 25 %
	heap := gateMetrics[2]  // peak_heap_mb, lower is better, 18 %
	var makespan, failed metricDef
	for _, m := range endToEndMetrics() {
		switch m.Name {
		case "sim_makespan_s":
			makespan = m
		case "failed_share":
			failed = m
		}
	}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{70, 100, 130, 85, 115}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", tasks, steady, steady, verdictOK},
		{"faster", tasks, steady, []float64{150, 151, 149}, verdictOK},
		{"slower within the bound", tasks, steady, []float64{85, 86, 84}, verdictOK},
		{"slower beyond the bound", tasks, steady, []float64{70, 71, 69}, verdictWorse},
		{"lower is better: grew", heap, steady, []float64{125, 126, 124}, verdictWorse},
		{"lower is better: shrank", heap, steady, []float64{50, 51, 49}, verdictOK},
		{"reps too spread to tell", tasks, noisy, noisy, verdictUnresolved},
		{"simulated metric moved", makespan, []float64{581.7}, []float64{581.8}, verdictWorse},
		{"simulated metric identical", makespan, []float64{581.7}, []float64{581.7}, verdictOK},
		{"a failure where there was none", failed, []float64{0}, []float64{0.001}, verdictWorse},
		{"no failure", failed, []float64{0}, []float64{0}, verdictOK},
	} {
		if got := compare(c.m, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tasksPerS float64) string {
		rec := newRecord("io-fleet", 1, false)
		rec.EndToEnd["tasks_per_s"] = []float64{tasksPerS, tasksPerS * 1.01, tasksPerS * 0.99}
		rec.EndToEnd["sim_makespan_s"] = []float64{581.7}
		path := dir + "/" + name
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.jsonl", 20000), write("same.jsonl", 19500), write("slow.jsonl", 14000)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", a, same}, &stdout, &stderr); code != 0 {
		t.Errorf("equal sets: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-compare", a, slow}, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), verdictWorse) {
		t.Errorf("slower set: exit %d\n%s", code, stdout.String())
	}
	if code := run([]string{"-compare", a, dir + "/missing.jsonl"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d", code)
	}
}

// The spread is the one Python's statistics.quantiles(values, n=4)
// gives, which is what the regression gate computes.
func TestIQRShareMatchesPython(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 30, 20}, (30.0 - 10.0) / 20},
		{[]float64{4, 1, 3, 2, 5}, (4.5 - 1.5) / 3},
		{[]float64{7}, 0},
	} {
		if got := iqrShare(c.vs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqrShare(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}
