package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// value is one metric on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output: the
// end-to-end metrics every gated workload reports, or in a traced run
// the per-layer metrics. A per-layer metric of a layer the workload's
// stack does not have, or an end-to-end metric that does not apply to
// it, reads 0 there.
func resultLine(rec *record) string {
	metrics := make(map[string]value)
	if rec.Traced {
		for _, m := range perLayerMetrics(rec.Workload == tcpLoopback) {
			v, ok := rec.PerLayer[m.Name]
			if vs := rec.EndToEnd[m.Name]; !ok && len(vs) > 0 {
				v = median(vs)
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	} else {
		for _, m := range gateMetrics {
			metrics[m.Name] = value{median(rec.EndToEnd[m.Name]), m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		// Only a NaN or an infinity cannot be marshalled: a bug.
		panic(err)
	}
	return string(line)
}

// printRecord prints every metric by name with its unit.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  %s  GOMAXPROCS %d  1 warm-up rep discarded, %d timed reps, tracing off",
		rec.Workload, rec.Seed, rec.GoVersion, rec.GOMAXPROCS, rec.Reps)
	if rec.Traced {
		fmt.Fprint(w, ", then 1 traced rep")
	}
	fmt.Fprintf(w, "\nend to end (median over the timed reps; spread = quartile distance / median):\n")
	for _, m := range endToEndMetrics() {
		vs := rec.EndToEnd[m.Name]
		if len(vs) == 0 {
			continue // does not apply to this workload
		}
		fmt.Fprintf(w, "  %-22s %16.6g %-7s", m.Name, median(vs), m.Unit)
		if len(vs) > 1 {
			fmt.Fprintf(w, " n=%d spread %.2f %%", len(vs), 100*iqrShare(vs))
		} else {
			fmt.Fprint(w, " identical in every rep")
		}
		fmt.Fprintln(w)
	}
	if rec.Workload == "stream-day" {
		fmt.Fprintln(w, "  open loop in simulated time: arrivals are engine events at their due instants, so generator lateness is 0 by construction")
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if rec.Traced {
		fmt.Fprintln(w, "per layer (traced rep; a layer that is not in this workload's stack is left out):")
		for _, m := range layerMetrics {
			if v, ok := rec.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads an -out file and pools the records of each
// workload: per-rep values are concatenated, so that a file holding
// several runs of a workload is one larger sample.
func readRecords(path string) (map[string]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		have, ok := out[rec.Workload]
		if !ok {
			out[rec.Workload] = &rec
			continue
		}
		for name, vs := range rec.EndToEnd {
			have.EndToEnd[name] = append(have.EndToEnd[name], vs...)
		}
		have.Correct = have.Correct && rec.Correct
	}
	return out, sc.Err()
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one (workload, metric) pair of two sets.
type comparison struct {
	medA, medB float64
	delta      float64 // (medB - medA) / |medA|
	spread     float64 // the wider of the two sides' rep spreads
	verdict    string
}

// compare judges b against a: worse when b's median is worse than a's
// by more than the bound; unresolved when it is not but the spread of
// either side's own reps is wider than the bound, so that "no worse"
// could not have been told from "worse".
func compare(m metricDef, a, b []float64) comparison {
	c := comparison{medA: median(a), medB: median(b), verdict: verdictOK}
	c.spread = math.Max(iqrShare(a), iqrShare(b))
	if c.medA != 0 {
		c.delta = (c.medB - c.medA) / math.Abs(c.medA)
	}
	worse := c.medB - c.medA
	if m.Better == higher {
		worse = -worse
	}
	bound := compareBound(m)
	switch {
	case worse > bound*math.Abs(c.medA):
		c.verdict = verdictWorse
	case bound > 0 && c.spread > bound:
		c.verdict = verdictUnresolved
	}
	return c
}

// compareFiles prints, per (workload, end-to-end metric), both medians,
// the delta, the bound and the verdict. It returns 1 if any is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return compareRecords(a, b, stdout)
}

func compareRecords(a, b map[string]*record, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "delta", "bound", "spread", "verdict")
	for _, wl := range workloadDefs {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			if ra != nil || rb != nil {
				fmt.Fprintf(w, "%-15s in one file only\n", wl.Name)
				code = 1
			}
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-15s a run was incorrect (A %v, B %v)\n", wl.Name, ra.Correct, rb.Correct)
			code = 1
		}
		for _, m := range endToEndMetrics() {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := compare(m, va, vb)
			fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				wl.Name, m.Name, c.medA, c.medB, 100*c.delta, 100*compareBound(m), 100*c.spread, c.verdict)
			if c.verdict == verdictWorse {
				code = 1
			}
		}
	}
	return code
}
