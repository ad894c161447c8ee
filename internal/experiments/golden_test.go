package experiments

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// goldenPath holds one "key sha256" line per pinned artifact.
const goldenPath = "testdata/golden.sha256"

// goldenReports builds, at seed 1, every report this package's tests
// build. Each entry renders through String(); reports with CSV
// exports are pinned file by file as well.
var goldenReports = []struct {
	name  string
	build func() (fmt.Stringer, error)
}{
	{"fig2", func() (fmt.Stringer, error) { return Fig2(1) }},
	{"fig4", func() (fmt.Stringer, error) { return Fig4(1) }},
	{"fig6", func() (fmt.Stringer, error) { return Fig6(10, 1) }},
	{"fig10", func() (fmt.Stringer, error) { return Fig10(1) }},
	{"fig11", func() (fmt.Stringer, error) { return Fig11(1) }},
	{"a1", func() (fmt.Stringer, error) { return AblationFixedCycle(1) }},
	{"a2", func() (fmt.Stringer, error) { return AblationNoCategories(1) }},
	{"a3", func() (fmt.Stringer, error) { return AblationHPAStabilization(1) }},
	{"a4", func() (fmt.Stringer, error) { return AblationQueueScaler(1) }},
	{"a5", func() (fmt.Stringer, error) { return AblationDispatchPolicy(1) }},
	{"s1", func() (fmt.Stringer, error) { return SweepInitLatency(1, 30*time.Second, 400*time.Second) }},
	{"s2", func() (fmt.Stringer, error) { return Stream(1) }},
	{"ef", func() (fmt.Stringer, error) { return ChaosEFWith(smallChaosCfg(1)) }},
	{"eg", func() (fmt.Stringer, error) { return RecoveryEGWith(smallRecoveryCfg(1)) }},
	{"eh", func() (fmt.Stringer, error) {
		cfg := ioScaleSmall()
		cfg.Seed = 1
		return IOScaleEHWith(cfg)
	}},
	{"ei", func() (fmt.Stringer, error) { return StreamEIWith(SmokeStreamEIConfig(1)) }},
	{"ej", func() (fmt.Stringer, error) { return TenantsEJWith(SmokeTenantsEJConfig(1)) }},
	{"ek", func() (fmt.Stringer, error) { return TenantChaosEKWith(SmokeTenantChaosEKConfig(1)) }},
	{"wfstream", func() (fmt.Stringer, error) {
		wfs, opt := workflowStreamCase(1)
		res, err := RunHTAWorkflowStream("wf-stream", wfs, opt)
		return runReport{res}, err
	}},
}

// runReport renders one bare run for the pins: its summary row, its
// counters, and its series as CSV.
type runReport struct{ run *RunResult }

func (r runReport) String() string {
	return summaryTable(r.run.Name, []SummaryRow{summaryRow(r.run.Name, r.run)}) +
		fmt.Sprintf("completed %d/%d, requeues %d, scaling actions %d, panics %d\n",
			r.run.Completed, r.run.Submitted, r.run.Requeues, r.run.ScalingActions, r.run.Panics)
}

func (r runReport) WriteCSVs(dir string) error {
	return writeRunsCSV(dir, "run", map[string]*RunResult{r.run.Name: r.run})
}

// TestGoldenReports compares each seed-1 report, and each CSV the
// figures export, against the sha256 recorded in testdata. The
// determinism tests compare one run with another; this one catches a
// change that shifts a number in both. On a mismatch the log carries
// the whole recomputed file.
func TestGoldenReports(t *testing.T) {
	want := readGolden(t)
	got := make(map[string]string)
	for _, g := range goldenReports {
		rep, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		got[g.name] = digest([]byte(rep.String()))
		w, ok := rep.(interface{ WriteCSVs(dir string) error })
		if !ok {
			continue
		}
		dir := filepath.Join(t.TempDir(), g.name)
		if err := w.WriteCSVs(dir); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[g.name+"/"+e.Name()] = digest(data)
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var file strings.Builder
	failed := false
	for _, k := range keys {
		if got[k] != "" {
			fmt.Fprintf(&file, "%s %s\n", k, got[k])
		}
		if got[k] != want[k] {
			failed = true
			t.Errorf("%s: sha256 %q, pinned %q", k, got[k], want[k])
		}
	}
	if failed {
		t.Logf("recomputed %s:\n%s", goldenPath, file.String())
	}
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		pins[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}
