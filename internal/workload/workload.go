// Package workload generates the synthetic workloads of the paper's
// evaluation: flat BLAST-style bags of tasks (Fig. 2 and Fig. 4), the
// three-stage BLAST workflow (Fig. 10), and the I/O-bound dd workload
// (Fig. 11). Generators are parameterized and seeded; the defaults
// are calibrated so the simulated experiments land in the paper's
// regime (see params.go for the calibration rationale).
package workload

import (
	"strconv"
	"strings"
	"time"

	"hta/internal/dag"
	"hta/internal/resources"
	"hta/internal/simclock"
	"hta/internal/wq"
)

// BlastFlatParams describes a flat bag of alignment tasks sharing a
// cacheable database input.
type BlastFlatParams struct {
	N          int           // number of tasks
	ExecMean   time.Duration // mean execution time
	ExecJitter float64       // ± fraction of uniform jitter
	CPUMilli   int64         // busy CPU while executing
	MemMB      int64         // peak memory
	SharedDBMB float64       // cacheable shared input size
	InputMB    float64       // per-task private input
	OutputMB   float64       // per-task output
	// Declared attaches the known requirement (1 core, MemMB) to the
	// tasks; false leaves requirements unknown (conservative
	// dispatch).
	Declared bool
	Seed     int64
}

// DefaultBlastFlat returns the Fig. 2 calibration: n jobs of ≈53 s at
// ≈87 % CPU over a shared 1.4 GB database, requirements known.
func DefaultBlastFlat(n int) BlastFlatParams {
	return BlastFlatParams{
		N:          n,
		ExecMean:   BlastExecMean,
		ExecJitter: 0.10,
		CPUMilli:   BlastCPUMilli,
		MemMB:      BlastMemMB,
		SharedDBMB: BlastSharedDBMB,
		OutputMB:   BlastOutputMB,
		Declared:   true,
		Seed:       1,
	}
}

// Specs generates the task list.
func (p BlastFlatParams) Specs() []wq.TaskSpec {
	rng := simclock.NewRNG(p.Seed)
	cmds := numbered(p.N, "blastall -i query.", " -o out.", "")
	specs := make([]wq.TaskSpec, 0, p.N)
	for i := 0; i < p.N; i++ {
		spec := wq.TaskSpec{
			Command:  cmds[i],
			Category: "align",
			InputMB:  p.InputMB,
			OutputMB: p.OutputMB,
			Profile: wq.Profile{
				ExecDuration: jitterDuration(rng, p.ExecMean, p.ExecJitter),
				UsedCPUMilli: p.CPUMilli,
				UsedMemoryMB: p.MemMB,
			},
		}
		if p.SharedDBMB > 0 {
			spec.SharedInputs = []wq.File{{Name: "nt.db", SizeMB: p.SharedDBMB}}
		}
		if p.Declared {
			spec.Resources = resources.Vector{MilliCPU: 1000, MemoryMB: p.MemMB}
		}
		specs = append(specs, spec)
	}
	return specs
}

// MultistageParams describes the Fig. 10 workflow: three stages of
// parallel tasks with file dependencies between consecutive stages.
type MultistageParams struct {
	StageCounts [3]int
	ExecMeans   [3]time.Duration
	ExecJitter  float64
	CPUMilli    int64
	MemMB       int64
	OutputMB    float64
	// Declared marks requirements as known; the HTA runs leave this
	// false so the warm-up stage measures each category.
	Declared bool
	Seed     int64
}

// DefaultMultistage returns the paper's stage structure: 200, 34 and
// 164 tasks of ≈5 minutes each.
func DefaultMultistage() MultistageParams {
	return MultistageParams{
		StageCounts: [3]int{200, 34, 164},
		ExecMeans:   [3]time.Duration{MultistageExec, MultistageExec, MultistageExec},
		ExecJitter:  0.10,
		CPUMilli:    BlastCPUMilli,
		MemMB:       BlastMemMB,
		OutputMB:    BlastOutputMB,
		Seed:        1,
	}
}

// Build constructs the DAG and the spec function mapping nodes to
// tasks. Each stage ends in a reduce, so every stage k+1 task
// consumes all stage k outputs — stages are separated by barriers,
// giving the workflow the distinct per-stage demand profile of the
// paper's Fig. 10a (including the mid-workflow dip that a reactive
// autoscaler fails to follow).
func (p MultistageParams) Build() (*dag.Graph, func(dag.Node) wq.TaskSpec, error) {
	rng := simclock.NewRNG(p.Seed)
	g := dag.NewGraph()
	var specs []wq.TaskSpec // by node index

	declared := resources.Zero
	if p.Declared {
		declared = resources.Vector{MilliCPU: 1000, MemoryMB: p.MemMB}
	}

	var prev []string // the previous stage's outputs
	for stage := 0; stage < 3; stage++ {
		n := strconv.Itoa(stage + 1)
		category := "stage" + n
		outs := numbered(p.StageCounts[stage], "s"+n+"_", ".out")
		cmds := numbered(p.StageCounts[stage], "blast-stage s"+n+"_", "")
		for i, out := range outs {
			// Barrier: consume every previous-stage output. Add
			// copies the lists, so the stage shares one.
			node := dag.Node{
				ID:       strings.TrimSuffix(out, ".out"),
				Category: category,
				Inputs:   prev,
				Outputs:  outs[i : i+1],
			}
			if err := g.Add(node); err != nil {
				return nil, nil, err
			}
			specs = append(specs, wq.TaskSpec{
				Command:   cmds[i],
				Category:  node.Category,
				Resources: declared,
				OutputMB:  p.OutputMB,
				Profile: wq.Profile{
					ExecDuration: jitterDuration(rng, p.ExecMeans[stage], p.ExecJitter),
					UsedCPUMilli: p.CPUMilli,
					UsedMemoryMB: p.MemMB,
				},
			})
		}
		prev = outs
	}
	if err := g.Finalize(); err != nil {
		return nil, nil, err
	}
	return g, func(n dag.Node) wq.TaskSpec { return specs[n.Index] }, nil
}

// IOBoundParams describes the Fig. 11 synthetic workload: parallel dd
// tasks that keep a processor busy with I/O while consuming little
// CPU.
type IOBoundParams struct {
	N          int
	ExecMean   time.Duration
	ExecJitter float64
	CPUMilli   int64 // low: the tasks wait on the disk
	MemMB      int64
	DiskMB     int64
	InputMB    float64 // per-task input streamed from the master
	OutputMB   float64 // per-task result shipped back
	Declared   bool
	Seed       int64
}

// DefaultIOBound returns the Fig. 11 calibration: 200 dd tasks of
// ≈100 s at ≈15 % CPU.
func DefaultIOBound() IOBoundParams {
	return IOBoundParams{
		N:          200,
		ExecMean:   IOBoundExec,
		ExecJitter: 0.10,
		CPUMilli:   IOBoundCPUMilli,
		MemMB:      IOBoundMemMB,
		DiskMB:     IOBoundDiskMB,
		Seed:       1,
	}
}

// Specs generates the task list.
func (p IOBoundParams) Specs() []wq.TaskSpec {
	rng := simclock.NewRNG(p.Seed)
	cmds := numbered(p.N, "dd if=/dev/sdb of=scratch.", " bs=1M")
	specs := make([]wq.TaskSpec, 0, p.N)
	for i := 0; i < p.N; i++ {
		spec := wq.TaskSpec{
			Command:  cmds[i],
			Category: "io",
			InputMB:  p.InputMB,
			OutputMB: p.OutputMB,
			Profile: wq.Profile{
				ExecDuration: jitterDuration(rng, p.ExecMean, p.ExecJitter),
				UsedCPUMilli: p.CPUMilli,
				UsedMemoryMB: p.MemMB,
				UsedDiskMB:   p.DiskMB,
			},
		}
		if p.Declared {
			spec.Resources = resources.Vector{MilliCPU: 1000, MemoryMB: p.MemMB, DiskMB: p.DiskMB}
		}
		specs = append(specs, spec)
	}
	return specs
}

// UniformParams is a generic bag-of-tasks generator for tests and
// examples.
type UniformParams struct {
	N         int
	Category  string
	Exec      time.Duration
	Jitter    float64
	Resources resources.Vector
	CPUMilli  int64
	Seed      int64
}

// Specs generates the task list.
func (p UniformParams) Specs() []wq.TaskSpec {
	rng := simclock.NewRNG(p.Seed)
	cat := p.Category
	if cat == "" {
		cat = "uniform"
	}
	cmds := numbered(p.N, "task ", "")
	specs := make([]wq.TaskSpec, 0, p.N)
	for i := 0; i < p.N; i++ {
		specs = append(specs, wq.TaskSpec{
			Command:   cmds[i],
			Category:  cat,
			Resources: p.Resources,
			Profile: wq.Profile{
				ExecDuration: jitterDuration(rng, p.Exec, p.Jitter),
				UsedCPUMilli: p.CPUMilli,
			},
		})
	}
	return specs
}

// numbered returns, for i = 0 … n-1, parts[0] i parts[1] i … i
// parts[k]. The strings are written back to back into one
// strings.Builder and each is a slice of it (a Builder never rewrites
// bytes it has handed out): one allocation for all n, not one each.
func numbered(n int, parts ...string) []string {
	size := len(strconv.Itoa(n)) * (len(parts) - 1)
	for _, p := range parts {
		size += len(p)
	}
	var b strings.Builder
	b.Grow(n * size)
	var num [20]byte
	out := make([]string, n)
	for i := range out {
		start := b.Len()
		b.WriteString(parts[0])
		for _, p := range parts[1:] {
			b.Write(strconv.AppendInt(num[:0], int64(i), 10))
			b.WriteString(p)
		}
		out[i] = b.String()[start:]
	}
	return out
}

func jitterDuration(rng *simclock.RNG, mean time.Duration, frac float64) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.Jitter(float64(mean), frac))
}
