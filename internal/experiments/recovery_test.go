package experiments

import (
	"strings"
	"testing"
	"time"
)

// smallRecoveryCfg shrinks E-G to test scale: a 40/8/32-task
// multistage workflow, one mid-run restart per component.
func smallRecoveryCfg(seed int64) RecoveryEGConfig {
	cfg := DefaultRecoveryEGConfig(seed)
	cfg.Stages = [3]int{40, 8, 32}
	cfg.KillCounts = []int{1}
	return cfg
}

func TestRecoveryEGDeterministic(t *testing.T) {
	a, err := RecoveryEGWith(smallRecoveryCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecoveryEGWith(smallRecoveryCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	// The contract: a fixed seed reproduces the whole crash/restore
	// schedule and therefore the report, byte for byte, even though
	// the cells ran on their own goroutines.
	if a.String() != b.String() {
		t.Errorf("same seed produced different reports:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

func TestRecoveryEGInvariantsAndOverhead(t *testing.T) {
	rep, err := RecoveryEGWith(smallRecoveryCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (baseline + 3 components)", len(rep.Rows))
	}
	// The omniscient fleet is capped by the node quota, not by the
	// warm-up's initial worker count.
	if peak := rep.Runs["recovery-baseline"].Ideal.Max(); peak <= 3 {
		t.Errorf("baseline ideal series peaks at %.0f, want above the 3 initial workers", peak)
	}
	total := 40 + 8 + 32
	for _, row := range rep.Rows {
		// Accounting invariant: every task the master accepted either
		// completed or was quarantined — no task lost to a component
		// crash, none executed twice under two IDs.
		if row.Submitted != row.Completed+row.Quarantined {
			t.Errorf("%s: submitted %d != completed %d + quarantined %d",
				row.Component, row.Submitted, row.Completed, row.Quarantined)
		}
		// The full DAG completes despite the mid-run restart.
		if row.Completed < total {
			t.Errorf("%s: completed %d < workflow size %d", row.Component, row.Completed, total)
		}
		if row.Quarantined != 0 {
			t.Errorf("%s: %d tasks quarantined by a control-plane restart", row.Component, row.Quarantined)
		}
		if row.Component == "none" {
			if row.Kills != 0 || row.OverheadPct != 0 {
				t.Errorf("baseline row carries kills=%d overhead=%.1f%%", row.Kills, row.OverheadPct)
			}
			continue
		}
		if row.Kills != row.Planned {
			t.Errorf("%s: delivered %d of %d planned kills", row.Component, row.Kills, row.Planned)
		}
		// Acceptance bar: a single mid-run restart costs at most 15%
		// of the no-crash makespan.
		if row.Planned == 1 && row.OverheadPct > 15 {
			t.Errorf("%s: single-restart overhead %.1f%% > 15%%", row.Component, row.OverheadPct)
		}
		if row.Goodput <= 0 || row.Goodput > 1 {
			t.Errorf("%s: goodput = %.3f, want (0, 1]", row.Component, row.Goodput)
		}
	}
}

func TestRecoveryEGRecoveryMachineryExercised(t *testing.T) {
	rep, err := RecoveryEGWith(smallRecoveryCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]RecoveryRow, len(rep.Rows))
	for _, row := range rep.Rows {
		rows[row.Component] = row
	}
	// A makeflow restart replays its journal and skips completed rules
	// instead of re-running them.
	mf := rows["makeflow"]
	if mf.Replayed == 0 {
		t.Errorf("makeflow restart replayed no journal records: %+v", mf)
	}
	if mf.Skipped == 0 {
		t.Errorf("makeflow restart re-ran every rule (skipped = 0): %+v", mf)
	}
	// A master restart with the whole fleet reattaching rescues the
	// in-flight attempts rather than redispatching them.
	ms := rows["master"]
	if ms.Rescued == 0 && ms.Requeued == 0 {
		t.Errorf("master restart neither rescued nor requeued anything: %+v", ms)
	}
	// Runtime report mentions every component.
	s := rep.String()
	for _, want := range []string{"none", "makeflow", "master", "operator"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q row:\n%s", want, s)
		}
	}
}

func TestRecoveryEGConfigDefaults(t *testing.T) {
	cfg := RecoveryEGConfig{Seed: 1}.withDefaults()
	if cfg.Downtime != 15*time.Second || cfg.RescueWindow != 30*time.Second {
		t.Errorf("defaults = %v/%v", cfg.Downtime, cfg.RescueWindow)
	}
	if len(cfg.KillCounts) == 0 || cfg.Timeout == 0 {
		t.Errorf("defaults missing kill counts or timeout: %+v", cfg)
	}
}

func BenchmarkRecoveryEG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := RecoveryEG(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 7 {
			b.Fatalf("rows = %d, want 7", len(rep.Rows))
		}
	}
}
