package core

import (
	"fmt"
	"testing"
	"time"

	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// scaleBenchInput builds the ISSUE's Algorithm 1 stress snapshot: 1000
// workers each running one long task (about half complete inside the
// window), and 10000 waiting tasks arriving in category blocks of 50 —
// four estimator-known categories, one declared-resources block and one
// unmeasured probe category.
func scaleBenchInput() EstimateInput {
	in := EstimateInput{
		Now:            t0,
		InitTime:       160 * time.Second,
		DefaultCycle:   30 * time.Second,
		WorkerTemplate: nodeCap,
		Estimator: &mapEstimator{
			res: map[string]resources.Vector{
				"c0": resources.New(1, 3800, 0),
				"c1": resources.New(1, 3800, 0),
				"c2": resources.New(1, 3800, 0),
				"c3": resources.New(1, 3800, 0),
			},
			dur: map[string]time.Duration{
				"c0": 200 * time.Second,
				"c1": 300 * time.Second,
				"c2": 400 * time.Second,
				"c3": 500 * time.Second,
				"lr": 300 * time.Second,
			},
		},
	}
	alloc := resources.New(1, 3800, 0)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("w%d", i)
		in.Workers = append(in.Workers, WorkerInfo{ID: id, Capacity: nodeCap})
		in.Running = append(in.Running, wq.Task{
			TaskSpec:  wq.TaskSpec{Category: "lr"},
			WorkerID:  id,
			StartedAt: t0.Add(-time.Duration(i%300) * time.Second),
			Allocated: alloc,
		})
	}
	for i := 0; i < 10000; i++ {
		t := wq.Task{}
		switch (i / 50) % 6 {
		case 0, 1, 2, 3:
			t.Category = fmt.Sprintf("c%d", (i/50)%6)
		case 4:
			t.Category = "c0"
			t.Resources = resources.New(2, 2048, 0)
		case 5:
			t.Category = "probe" // unmeasured: needs an idle worker
		}
		in.Waiting = append(in.Waiting, t)
	}
	return in
}

// BenchmarkEstimateScale measures the grouped planner on the 10k-task
// × 1k-worker snapshot, reusing one Planner across iterations the way
// the autoscaler does (steady state should report zero allocs/op).
func BenchmarkEstimateScale(b *testing.B) {
	in := scaleBenchInput()
	var p Planner
	p.EstimateScale(in)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if dec := p.EstimateScale(in); dec.ScaleChange <= 0 {
			b.Fatalf("expected a scale-up, got %+v", dec)
		}
	}
}

// BenchmarkEstimateScaleNaive runs the retained per-task reference on
// the same snapshot — the baseline for the speedup claim.
func BenchmarkEstimateScaleNaive(b *testing.B) {
	in := scaleBenchInput()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if dec := referenceEstimateScale(in); dec.ScaleChange <= 0 {
			b.Fatalf("expected a scale-up, got %+v", dec)
		}
	}
}

// BenchmarkEstimateScaleSmall keeps the original 20-worker, 300-task
// scenario for historical comparison with earlier benchmark records.
func BenchmarkEstimateScaleSmall(b *testing.B) {
	in := EstimateInput{
		Now:            t0,
		InitTime:       160 * time.Second,
		DefaultCycle:   30 * time.Second,
		WorkerTemplate: nodeCap,
		Estimator: &mapEstimator{
			res: map[string]resources.Vector{"c": resources.New(1, 3800, 0)},
			dur: map[string]time.Duration{"c": 300 * time.Second},
		},
	}
	for i := 0; i < 20; i++ {
		in.Workers = append(in.Workers, WorkerInfo{ID: fmt.Sprintf("w%d", i), Capacity: nodeCap})
	}
	alloc := resources.New(1, 3800, 0)
	for i := 0; i < 60; i++ {
		in.Running = append(in.Running, wq.Task{
			TaskSpec:  wq.TaskSpec{Category: "c"},
			WorkerID:  fmt.Sprintf("w%d", i%20),
			StartedAt: t0.Add(-time.Duration(i) * time.Second),
			Allocated: alloc,
		})
	}
	in.Waiting = waiting(300, "c")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dec := EstimateScale(in)
		if dec.ScaleChange == 0 && dec.UnplacedWaiting == 0 {
			b.Fatal("unexpected trivial decision")
		}
	}
}

// BenchmarkAutoscalerDecide measures one whole resize decision —
// assembling Algorithm 1's input from the live system and evaluating
// it — on a workflow-hta-shaped cell: 2 000 four-core workers running
// 8 000 undeclared tasks of 20 monitor-measured categories with
// 10 000 more waiting. Parent vs change is the before/after of the
// live task view.
func BenchmarkAutoscalerDecide(b *testing.B) {
	const workers, categories, tasks = 2000, 20, 18000
	eng := simclock.NewEngine(t0)
	cluster := kubesim.NewCluster(eng, kubesim.Config{
		InitialNodes:    workers,
		MaxNodes:        workers,
		NodeAllocatable: resources.New(4, 16384, 100000),
		Seed:            1,
	})
	defer cluster.Stop()
	master := wq.NewMaster(eng, nil)
	// The resize loop stays asleep: the benchmark calls decide itself.
	a := New(eng, cluster, master, Config{InitialWorkers: workers, DefaultCycle: time.Hour})
	if err := a.Start(); err != nil {
		b.Fatal(err)
	}
	spec := func(cat int, exec time.Duration) wq.TaskSpec {
		return wq.TaskSpec{
			Category: fmt.Sprintf("stage%d", cat),
			Profile:  wq.Profile{ExecDuration: exec, UsedCPUMilli: 900, UsedMemoryMB: 1024},
		}
	}
	// One probe per category teaches the monitor its estimates: even
	// categories finish inside the planning window, odd ones outlast it.
	for c := 0; c < categories; c++ {
		a.Submit(spec(c, time.Duration(60+340*(c%2)+c)*time.Second))
	}
	eng.RunFor(8 * time.Minute)
	for i := 0; i < tasks; i++ {
		a.Submit(spec(i*categories/tasks, time.Duration(90+i%60)*time.Second))
	}
	eng.RunFor(time.Second)
	if st := master.Stats(); st.Workers != workers || st.Running != 4*workers || st.Waiting != tasks-4*workers {
		b.Fatalf("cell not in shape: %+v", st)
	}
	a.decide() // warm the scratch state
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if dec := a.decide(); dec.ScaleChange <= 0 {
			b.Fatalf("expected a scale-up, got %+v", dec)
		}
	}
}

// BenchmarkPanicBurst runs the panic fast path end to end — a
// submission burst into a small simulated fleet gets sampled,
// triggers, and scales — so regressions in the checker's sampling or
// the instantaneous-shortage evaluation show up as sim wall time. One
// iteration is one full scenario.
func BenchmarkPanicBurst(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := simclock.NewEngine(t0)
		cluster := kubesim.NewCluster(eng, kubesim.Config{
			InitialNodes:  2,
			MaxNodes:      40,
			ProvisionMean: 10 * time.Second,
			Seed:          1,
		})
		master := wq.NewMaster(eng, nil)
		a := New(eng, cluster, master, Config{
			InitialWorkers: 2,
			DefaultCycle:   5 * time.Minute, // cadence asleep: only panic reacts
			Panic:          PanicConfig{Enabled: true},
		})
		if err := a.Start(); err != nil {
			b.Fatal(err)
		}
		eng.RunFor(2 * time.Minute)
		for j := 0; j < 60; j++ {
			a.Submit(wq.TaskSpec{
				Category:  "burst",
				Resources: resources.New(1, 3072, 0),
				Profile:   wq.Profile{ExecDuration: 10 * time.Minute, UsedCPUMilli: 900},
			})
		}
		eng.RunFor(time.Minute)
		if a.PanicCount() == 0 {
			b.Fatal("no panic fired on the burst")
		}
		cluster.Stop()
	}
}
