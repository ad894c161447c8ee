package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"hta/internal/metrics"
)

// WriteRunCSV dumps one run's supply/demand series as an aligned-
// column CSV (the data behind a Fig. 10b/11b panel).
func WriteRunCSV(path string, run *RunResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	series := []*metrics.Series{
		run.Account.Supply, run.Account.InUse,
		run.Account.Shortage, run.Account.Waste,
		run.Workers, run.IdleWorkers, run.Ideal,
	}
	if run.Desired.Len() > 0 {
		series = append(series, run.Desired)
	}
	if run.Nodes.Len() > 0 {
		series = append(series, run.Nodes)
	}
	for _, s := range sortedCategorySeries(run) {
		series = append(series, s)
	}
	return metrics.WriteCSVColumns(f, run.Start, series...)
}

func sortedCategorySeries(run *RunResult) []*metrics.Series {
	if run.CategoryOutstanding == nil {
		return nil
	}
	names := make([]string, 0, len(run.CategoryOutstanding))
	for name := range run.CategoryOutstanding {
		names = append(names, name)
	}
	slices.Sort(names) // deterministic column order
	out := make([]*metrics.Series, 0, len(names))
	for _, n := range names {
		out = append(out, run.CategoryOutstanding[n])
	}
	return out
}

// csvName sanitizes a run name into a file stem.
func csvName(prefix, runName string) string {
	repl := strings.NewReplacer("(", "", ")", "", "%", "", " ", "_", "/", "-")
	return prefix + "_" + strings.ToLower(repl.Replace(runName)) + ".csv"
}

func writeRunsCSV(dir, prefix string, runs map[string]*RunResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, run := range runs {
		if err := WriteRunCSV(filepath.Join(dir, csvName(prefix, name)), run); err != nil {
			return fmt.Errorf("export %s/%s: %w", prefix, name, err)
		}
	}
	return nil
}

// WriteCSVs exports every run of the report into dir.
func (r *Fig2Report) WriteCSVs(dir string) error {
	runs := make(map[string]*RunResult, len(r.Runs)+1)
	for k, v := range r.Runs {
		runs[k] = v
	}
	runs["ideal"] = r.Ideal
	return writeRunsCSV(dir, "fig2", runs)
}

// WriteCSVs exports every run of the report into dir.
func (r *Fig4Report) WriteCSVs(dir string) error { return writeRunsCSV(dir, "fig4", r.Runs) }

// WriteCSVs exports every run of the report into dir.
func (r *Fig10Report) WriteCSVs(dir string) error { return writeRunsCSV(dir, "fig10", r.Runs) }

// WriteCSVs exports every run of the report into dir.
func (r *Fig11Report) WriteCSVs(dir string) error { return writeRunsCSV(dir, "fig11", r.Runs) }
