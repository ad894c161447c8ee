package experiments

import (
	"reflect"
	"testing"
)

// TestTenantChaosEKSmoke runs the compressed E-K twice at the same
// seed: the reports must be byte-identical (the CI determinism gate),
// every cell must balance its books, the planned faults must all be
// delivered, and the isolation headline — untouched tenants within
// the configured tolerance of their chaos-free makespans — must hold.
func TestTenantChaosEKSmoke(t *testing.T) {
	cfg := SmokeTenantChaosEKConfig(42)
	rep1, err := TenantChaosEKWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := TenantChaosEKWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("E-K not deterministic at seed 42:\n%v\nvs\n%v", rep1, rep2)
	}

	byCell := map[string]TenantChaosEKRow{}
	for _, row := range rep1.Rows {
		byCell[row.Cell] = row
		if row.Completed+row.Quarantined+row.Shed != row.Submitted {
			t.Errorf("%s: completed %d + quarantined %d + shed %d != submitted %d",
				row.Cell, row.Completed, row.Quarantined, row.Shed, row.Submitted)
		}
	}
	base := byCell["baseline"]
	if base.MasterKills != 0 || base.ArbiterKills != 0 || base.Joins != 0 {
		t.Errorf("baseline saw chaos: %+v", base)
	}
	if base.Quarantined != 0 {
		t.Errorf("baseline quarantined %d tasks with no faults", base.Quarantined)
	}

	mk := byCell["master-kills"]
	if mk.MasterKills != cfg.MasterKills {
		t.Errorf("master-kills delivered %d/%d kills", mk.MasterKills, cfg.MasterKills)
	}
	if mk.Recovery.MasterRestarts != cfg.MasterKills {
		t.Errorf("master-kills restarts %d != kills %d", mk.Recovery.MasterRestarts, cfg.MasterKills)
	}
	if mk.Recovery.Downtime == 0 {
		t.Errorf("master-kills recorded no downtime")
	}

	ak := byCell["arbiter-kill"]
	if ak.ArbiterKills != cfg.ArbiterKills {
		t.Errorf("arbiter-kill delivered %d/%d kills", ak.ArbiterKills, cfg.ArbiterKills)
	}
	if ak.Recovery.OperatorRestarts != cfg.ArbiterKills {
		t.Errorf("arbiter-kill restarts %d != kills %d", ak.Recovery.OperatorRestarts, cfg.ArbiterKills)
	}
	// An arbiter outage must not lose work: no tenant quarantines a
	// task because the capacity arbiter restarted.
	if ak.Quarantined != 0 {
		t.Errorf("arbiter-kill quarantined %d tasks", ak.Quarantined)
	}

	ch := byCell["churn"]
	if ch.Joins != cfg.ChurnJoins || ch.Leaves != cfg.ChurnLeaves {
		t.Errorf("churn delivered %d/%d joins, %d/%d leaves",
			ch.Joins, cfg.ChurnJoins, ch.Leaves, cfg.ChurnLeaves)
	}
	if ch.TenantsRemoved != cfg.ChurnLeaves {
		t.Errorf("churn removed %d tenants, want %d", ch.TenantsRemoved, cfg.ChurnLeaves)
	}
	if ch.Submitted <= base.Submitted {
		t.Errorf("churn submitted %d, want more than baseline %d (joiner work)", ch.Submitted, base.Submitted)
	}

	full := byCell["full"]
	if full.MasterKills == 0 || full.ArbiterKills == 0 || full.Joins == 0 {
		t.Errorf("full cell missing faults: %+v", full)
	}

	// The isolation headline: in every chaos cell the residents the
	// faults never touched finish within the blast-radius bound of
	// their chaos-free makespans.
	for _, row := range rep1.Rows[1:] {
		if row.Untouched == 0 {
			t.Errorf("%s: no untouched residents to measure isolation on", row.Cell)
		}
		if row.MaxUntouchedDelta > row.IsolationSlack {
			t.Errorf("%s: untouched makespan inflated %v > %v slack",
				row.Cell, row.MaxUntouchedDelta, row.IsolationSlack)
		}
	}
}

// TestTenantChaosEKIsolationAcrossSeeds re-checks the isolation bound
// under different fault schedules, and guards against the report
// being seed-independent.
func TestTenantChaosEKIsolationAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var prev *TenantChaosEKReport
	for _, seed := range []int64{1, 2, 3} {
		rep, err := TenantChaosEKWith(SmokeTenantChaosEKConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, row := range rep.Rows[1:] {
			if row.MaxUntouchedDelta > row.IsolationSlack {
				t.Errorf("seed %d: isolation bound violated:\n%v", seed, rep)
				break
			}
		}
		if prev != nil && reflect.DeepEqual(prev.Rows, rep.Rows) {
			t.Errorf("seeds %d and %d produced identical E-K rows", seed-1, seed)
		}
		prev = rep
	}
}
