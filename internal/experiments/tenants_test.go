package experiments

import (
	"reflect"
	"slices"
	"testing"

	"hta/internal/arbiter"
	"hta/internal/simclock"
)

// TestTenantsEJSmoke runs the compressed E-J twice at the same seed:
// the reports must be byte-identical (the CI determinism gate), the
// books must balance, and the headline ordering — fair share at least
// as fair as the single shared autoscaler — must hold.
func TestTenantsEJSmoke(t *testing.T) {
	rep1, err := TenantsEJWith(SmokeTenantsEJConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := TenantsEJWith(SmokeTenantsEJConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("E-J not deterministic at seed 42:\n%v\nvs\n%v", rep1, rep2)
	}
	byPolicy := map[string]TenantsEJRow{}
	for _, row := range rep1.Rows {
		byPolicy[row.Policy] = row
		if row.Completed+row.Shed != row.Submitted {
			t.Errorf("%s: completed %d + shed %d != submitted %d", row.Policy, row.Completed, row.Shed, row.Submitted)
		}
		if row.Jain <= 0 || row.Jain > 1 {
			t.Errorf("%s: Jain index %v out of (0, 1]", row.Policy, row.Jain)
		}
		if row.Utilization <= 0 || row.Utilization > 1 {
			t.Errorf("%s: utilization %v out of (0, 1]", row.Policy, row.Utilization)
		}
		if row.Cycles == 0 || row.PodsCreated == 0 {
			t.Errorf("%s: arbiter idle: %+v", row.Policy, row)
		}
	}
	fair, shared := byPolicy["fair-share"], byPolicy["shared"]
	if fair.Jain < shared.Jain {
		t.Errorf("fair-share Jain %v below shared-autoscaler baseline %v", fair.Jain, shared.Jain)
	}
	// The incremental arbiter's whole point: digest work per cycle is
	// far below T.
	if fair.ReplansPerCycle() >= float64(fair.Tenants) {
		t.Errorf("fair-share replans/cycle %v not amortized below T=%d", fair.ReplansPerCycle(), fair.Tenants)
	}
}

// TestTenantsEJSeedsDiffer guards against the report being constant.
func TestTenantsEJSeedsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep1, err := TenantsEJWith(SmokeTenantsEJConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := TenantsEJWith(SmokeTenantsEJConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(rep1.Rows, rep2.Rows) {
		t.Fatal("different seeds produced identical E-J rows")
	}
}

// TestTenantsEJPlanDifferential runs E-J at T=100, all three cells,
// and at every arbitration instant, just before the arbiter's own
// cycle, plans twice from the same state: the full re-plan and the
// incremental plan with its memoized digests. The grants must agree,
// or the memo served a digest its tenant's revision no longer backs.
func TestTenantsEJPlanDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultTenantsEJConfig(1, 100)
	cycles, mismatches := 0, 0
	tenantsCellHook = func(eng *simclock.Engine, a *arbiter.Arbiter) {
		// Created before the arbiter's ticker, so it fires first at
		// each shared instant.
		eng.Every(cfg.Cycle, "ej-differential", func() {
			a.SetNaiveArbitration(true)
			ref := slices.Clone(a.PlanOnly())
			a.SetNaiveArbitration(false)
			if got := a.PlanOnly(); !slices.Equal(got, ref) {
				if mismatches++; mismatches <= 3 {
					t.Errorf("cycle at %v: incremental grants %v, reference %v", eng.Now(), got, ref)
				}
			}
			cycles++
		})
	}
	defer func() { tenantsCellHook = nil }()
	if _, err := TenantsEJWith(cfg); err != nil {
		t.Fatal(err)
	}
	if mismatches > 0 {
		t.Errorf("%d of %d cycles disagree", mismatches, cycles)
	}
	if cycles < 30 {
		t.Errorf("only %d arbitration cycles checked", cycles)
	}
}
