// Command htabench regenerates the paper's evaluation: every figure
// and table of "Autoscaling High-Throughput Workloads on Container
// Orchestrators" (CLUSTER 2020) plus the repository's own ablations,
// all on the simulated stack.
//
// Usage:
//
//	htabench [-seed N] [-runs fig2,fig4,fig6,fig10,fig11,ablations,sweeps,stream,chaos,recovery,io,ioscale,tenants,tenantchaos]
//	         [-csv DIR] [-html FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// A name -runs does not know is a usage error (exit 2, the valid names
// on stderr); -runs none selects nothing.
//
// The io run is experiment E-H — the Fig. 11 I/O-bound workload swept
// to 1k/5k/10k-worker fleets — and is not in the default set: its
// pinned-HPA cells simulate weeks of virtual time. Invoke it with
// -runs io. The ioscale run extends the sweep to the 50k/100k-worker
// fleets unlocked by the lane-sharded engine (months of virtual
// time; -runs ioscale).
//
// htabench prints experiment tables only. Wall-clock performance is
// measured by the gated end-to-end benchmark (benchmark/run.sh) and by
// the packages' go test -bench benchmarks.
//
// -cpuprofile and -memprofile write pprof profiles covering whatever
// the invocation ran — the standard way to find the next control-plane
// hotspot. Failing to write either profile exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"hta/internal/experiments"
	"hta/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main's body behind an exit code so the deferred profile
// writers fire on every path (os.Exit skips defers). A malformed flag
// or an unknown -runs name is a usage error: nothing runs, the valid
// names go to stderr and the exit code is 2.
func run(args []string, stderr io.Writer) (code int) {
	flags := flag.NewFlagSet("htabench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	seed := flags.Int64("seed", 1, "simulation seed")
	runs := flags.String("runs", "fig2,fig4,fig6,fig10,fig11,ablations,sweeps,stream,chaos,recovery",
		"comma-separated experiments to run")
	csvDir := flags.String("csv", "", "directory to export per-run CSV series into")
	htmlOut := flags.String("html", "", "write an HTML report with SVG charts to this file")
	cpuProfile := flags.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flags.String("memprofile", "", "write a heap profile taken at exit to this file")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	type experiment struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	all := []experiment{
		{"fig2", func() (fmt.Stringer, error) { return experiments.Fig2(*seed) }},
		{"fig4", func() (fmt.Stringer, error) { return experiments.Fig4(*seed) }},
		{"fig6", func() (fmt.Stringer, error) { return experiments.Fig6(10, *seed) }},
		{"fig10", func() (fmt.Stringer, error) { return experiments.Fig10(*seed) }},
		{"fig11", func() (fmt.Stringer, error) { return experiments.Fig11(*seed) }},
		{"ablations", runAblations(*seed)},
		{"sweeps", func() (fmt.Stringer, error) { return experiments.SweepInitLatency(*seed) }},
		{"stream", runStream(*seed)},
		{"chaos", func() (fmt.Stringer, error) { return experiments.ChaosEF(*seed) }},
		{"recovery", func() (fmt.Stringer, error) { return experiments.RecoveryEG(*seed) }},
		{"io", func() (fmt.Stringer, error) { return experiments.IOScaleEH(*seed) }},
		{"ioscale", func() (fmt.Stringer, error) { return experiments.IOScaleEHScale(*seed) }},
		{"tenants", func() (fmt.Stringer, error) { return experiments.TenantsEJ(*seed, 100) }},
		{"tenantchaos", func() (fmt.Stringer, error) { return experiments.TenantChaosEK(*seed) }},
	}
	// "none" selects nothing; it is not an experiment.
	valid := []string{"none"}
	for _, ex := range all {
		valid = append(valid, ex.name)
	}
	selected := make(map[string]bool)
	for _, r := range strings.Split(*runs, ",") {
		r = strings.TrimSpace(r)
		if !slices.Contains(valid, r) {
			fmt.Fprintf(stderr, "htabench: unknown run %q in -runs; valid names: %s\n", r, strings.Join(valid, ", "))
			return 2
		}
		selected[r] = true
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// The heap profile is written on the way out, so a failure can
		// only reach the exit code through the named result.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				code = 1
				return
			}
			runtime.GC() // settle live heap before the snapshot
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
				code = 1
			}
		}()
	}

	var page *report.Page
	if *htmlOut != "" {
		page = report.NewPage("HTA reproduction — experiment report")
	}
	failed := false
	for _, ex := range all {
		if !selected[ex.name] {
			continue
		}
		start := time.Now()
		rep, err := ex.run()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", ex.name, err)
			failed = true
			continue
		}
		fmt.Printf("==== %s (simulated in %v) ====\n%s\n", ex.name, time.Since(start).Round(time.Millisecond), rep)
		if *csvDir != "" {
			if d, ok := rep.(interface{ WriteCSVs(string) error }); ok {
				if err := d.WriteCSVs(*csvDir); err != nil {
					fmt.Fprintf(stderr, "%s: csv export: %v\n", ex.name, err)
					failed = true
				}
			}
		}
		if page != nil {
			if a, ok := rep.(experiments.PageAdder); ok {
				a.AddToPage(page)
			}
		}
	}
	if page != nil && !failed {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := page.Render(f); err != nil {
			fmt.Fprintln(stderr, err)
			failed = true
		}
		f.Close()
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
	if failed {
		return 1
	}
	return 0
}

// runStream bundles the two open-loop scenarios: S2 (diurnal stream,
// HTA vs HPA) and E-I (trace-driven day with morning spikes, adding
// the panic-mode cell and admission control).
func runStream(seed int64) func() (fmt.Stringer, error) {
	return func() (fmt.Stringer, error) {
		s2, err := experiments.Stream(seed)
		if err != nil {
			return nil, err
		}
		ei, err := experiments.StreamEI(seed)
		if err != nil {
			return nil, err
		}
		return streamCombined{s2: s2, ei: ei}, nil
	}
}

// streamCombined renders S2 then E-I and forwards S2's chart hook.
type streamCombined struct {
	s2 *experiments.StreamReport
	ei *experiments.StreamEIReport
}

func (c streamCombined) String() string { return c.s2.String() + "\n" + c.ei.String() }

func (c streamCombined) AddToPage(p *report.Page) { c.s2.AddToPage(p) }

func runAblations(seed int64) func() (fmt.Stringer, error) {
	return func() (fmt.Stringer, error) {
		var b strings.Builder
		a1, err := experiments.AblationFixedCycle(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a1.String())
		b.WriteString("\n")
		a2, err := experiments.AblationNoCategories(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a2.String())
		b.WriteString("\n")
		a3, err := experiments.AblationHPAStabilization(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a3.String())
		b.WriteString("\n")
		a4, err := experiments.AblationQueueScaler(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a4.String())
		b.WriteString("\n")
		a5, err := experiments.AblationDispatchPolicy(seed)
		if err != nil {
			return nil, err
		}
		b.WriteString(a5.String())
		return stringer{b.String()}, nil
	}
}

type stringer struct{ s string }

func (s stringer) String() string { return s.s }
