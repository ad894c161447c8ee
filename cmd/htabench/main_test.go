package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRunUsageErrors pins the -runs contract: a name htabench does not
// know is a usage error that runs nothing (exit 2, the valid names on
// stderr), not a silent success; "none" is the explicit empty selection.
// A profile htabench cannot write fails the run (exit 1).
func TestRunUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "x")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string // substring stderr must contain; empty means stderr must be empty
	}{
		{"none selects nothing", []string{"-runs", "none"}, 0, ""},
		{"typo", []string{"-runs", "fig1O"}, 2, `unknown run "fig1O"`},
		{"typo beside valid names", []string{"-runs", "none,ablation"}, 2, `unknown run "ablation"`},
		{"empty selection", []string{"-runs", ""}, 2, `unknown run ""`},
		{"trailing comma", []string{"-runs", "none,"}, 2, `unknown run ""`},
		{"valid list is printed", []string{"-runs", "nope"}, 2, "valid names: none, fig2, fig4, fig6, fig10, fig11, ablations, sweeps, stream, chaos, recovery, io, ioscale, tenants, tenantchaos"},
		{"scale is not a run", []string{"-runs", "scale"}, 2, `unknown run "scale"`},
		{"unknown flag", []string{"-run", "fig2"}, 2, "flag provided but not defined"},
		{"help is not an error", []string{"-h"}, 0, "Usage of htabench"},
		{"malformed seed", []string{"-seed", "x", "-runs", "none"}, 2, "invalid value"},
		{"unwritable cpuprofile", []string{"-runs", "none", "-cpuprofile", missing}, 1, "no such file or directory"},
		{"unwritable memprofile", []string{"-runs", "none", "-memprofile", missing}, 1, "no such file or directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			if code := run(tc.args, &stderr); code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if tc.stderr == "" && stderr.Len() != 0 {
				t.Errorf("unexpected stderr: %s", stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestRetiredFlags pins that the flags of the retired wall-clock bench
// battery are gone: performance is measured by benchmark/run.sh and the
// packages' go test -bench benchmarks, not by htabench.
func TestRetiredFlags(t *testing.T) {
	for _, name := range []string{"json"} {
		var stderr strings.Builder
		if code := run([]string{"-runs", "none", "-" + name}, &stderr); code != 2 {
			t.Errorf("-%s: exit code %d, want 2", name, code)
		}
		if want := "flag provided but not defined: -" + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s: stderr %q does not contain %q", name, stderr.String(), want)
		}
	}
}
