// Command benchmark is the one benchmark of the HTA stack: five named
// workloads, the end-to-end metrics a user of the system would see,
// per-layer probes and a traced run. See README.md in this directory.
//
// It measures the layers from outside: it wires the stack itself from
// the layer constructors, times the calls it makes into each layer's
// public functions, and reads each layer's public counters.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// options is one invocation's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	out      string
}

const usageText = `usage:
  benchmark -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE] [-out FILE]
  benchmark -workload all  [same flags]     every workload, each in a fresh process
  benchmark -compare A.jsonl B.jsonl        compare two -out files

workloads: %s
seeds:     whole numbers from 1 up
`

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit: 0 on success, 1 when a run
// fails, is incorrect or a comparison finds a metric worse, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintf(stderr, usageText, workloadNames()) }
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload generators")
	fs.Float64Var(&o.seconds, "seconds", 15, "host seconds the timed reps should add up to")
	fs.IntVar(&trace, "trace", 0, "1: add the traced rep and print the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced rep's spans as Chrome trace-event JSON")
	fs.StringVar(&o.out, "out", "", "append the run's full record to this file, one JSON object per line")
	fs.BoolVar(&compare, "compare", false, "compare two -out files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			return usage("-compare takes two files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if !knownWorkload(o.workload) && o.workload != "all" {
		return usage("unknown workload %q", o.workload)
	}
	if o.seed < 1 {
		return usage("seed %d is not a whole number from 1 up", o.seed)
	}
	if trace != 0 && trace != 1 {
		return usage("-trace is 0 or 1, not %d", trace)
	}
	if o.seconds <= 0 {
		return usage("-seconds must be positive")
	}
	o.trace = trace == 1
	if o.traceOut != "" && !o.trace {
		return usage("-trace-out needs -trace 1")
	}
	if o.workload == "all" {
		if o.traceOut != "" {
			return usage("-trace-out holds one workload's trace; name the workload")
		}
		return runAll(args, stdout, stderr)
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	rec, tr, err := runWorkload(o, fullSizes())
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	if o.traceOut != "" {
		if err := tr.writeChrome(o.traceOut); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	printRecord(stdout, rec)
	fmt.Fprintln(stdout, resultLine(rec))
	if !rec.Correct {
		return 1
	}
	return 0
}

func runWorkload(o options, sz sizes) (*record, *tracer, error) {
	if w := sz.sim(o.workload); w != nil {
		return runSim(o.workload, w, o)
	}
	return runTCP(sz.tcp, o)
}

// runAll runs every workload in a fresh process of this same binary, so
// that each starts cold and none inherits another's heap.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloadDefs {
		// A later -workload overrides the "all" among args.
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			}
			code = 1
		}
	}
	return code
}
