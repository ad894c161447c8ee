package core

import (
	"math/rand"
	"testing"
	"time"

	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/wq"
)

// TestGovernorDisabledIsIdentity pins the byte-identity contract of
// the non-panic path: with the zero PanicConfig, governDecision
// returns every decision untouched, for adversarial inputs across
// many seeds (house style for wrappers around the decision path).
func TestGovernorDisabledIsIdentity(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 3, MaxNodes: 20}, Config{})
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			in := Decision{
				ScaleChange:          rng.Intn(41) - 20,
				NextCycle:            time.Duration(rng.Intn(600)) * time.Second,
				PredictedIdleWorkers: rng.Intn(10),
				UnplacedWaiting:      rng.Intn(1000),
			}
			if got := s.a.governDecision(in); got != in {
				t.Fatalf("seed %d iter %d: governDecision(%+v) = %+v with panic disabled", seed, i, in, got)
			}
		}
	}
	if s.a.panicSt.ticker != nil {
		t.Error("panic checker armed with panic disabled")
	}
}

// TestPanicFiresOnBurst checks the fast path: a submission burst into
// a small fleet triggers a panic scale-up within the check window,
// long before the per-cycle loop (parked on a long cycle) would have
// reacted.
func TestPanicFiresOnBurst(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 2, MaxNodes: 40, ProvisionMean: 10 * time.Second},
		Config{
			InitialWorkers: 2,
			DefaultCycle:   5 * time.Minute, // cadence asleep: only panic can react quickly
			Panic:          PanicConfig{Enabled: true},
		})
	s.eng.RunFor(2 * time.Minute) // initial workers up
	for i := 0; i < 60; i++ {
		s.a.Submit(wq.TaskSpec{
			Category:  "burst",
			Resources: nodeSized(s, 4),
			Profile:   wq.Profile{ExecDuration: 10 * time.Minute, UsedCPUMilli: 900},
		})
	}
	s.eng.RunFor(time.Minute)
	if got := s.a.PanicCount(); got == 0 {
		t.Fatalf("no panic fired on a 60-task burst (decisions: %+v)", s.a.Decisions)
	}
	var panicRec *DecisionRecord
	for i := range s.a.Decisions {
		if s.a.Decisions[i].Panic {
			panicRec = &s.a.Decisions[i]
			break
		}
	}
	if panicRec == nil {
		t.Fatal("PanicCount > 0 but no Panic decision recorded")
	}
	if panicRec.ScaleChange <= 0 {
		t.Errorf("panic decision ScaleChange = %d, want > 0", panicRec.ScaleChange)
	}
	if got := panicRec.At.Sub(t0); got > 3*time.Minute {
		t.Errorf("panic fired at +%v, want within the first minute of the burst", got)
	}
	if got := s.a.WorkerPodCount(); got <= 2 {
		t.Errorf("fleet = %d after panic, want > 2", got)
	}
}

// nodeSized returns a declared requirement filling the given number
// of quarters of one node.
func nodeSized(s *stack, quarters int64) resources.Vector {
	alloc := s.cluster.Config().NodeAllocatable
	alloc.MilliCPU = alloc.MilliCPU * quarters / 4
	alloc.MemoryMB = alloc.MemoryMB * quarters / 4
	alloc.DiskMB = alloc.DiskMB * quarters / 4
	return alloc
}

// TestGovernorDamping unit-tests the steady-state rules with a
// controlled clock: tolerance dead band, scale-down stabilization,
// post-panic hold, and the scale-down cooldown.
func TestGovernorDamping(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 10, MaxNodes: 40},
		Config{InitialWorkers: 10, Panic: PanicConfig{Enabled: true}})
	s.eng.RunFor(3 * time.Minute) // 10 workers active
	fleet := s.a.WorkerPodCount()
	if fleet != 10 {
		t.Fatalf("fleet = %d, want 10", fleet)
	}

	// Tolerance band: |change| <= 10% of 10 workers is held at zero.
	if got := s.a.governDecision(Decision{ScaleChange: 1}); got.ScaleChange != 0 {
		t.Errorf("+1 within tolerance not damped: %+v", got)
	}
	if got := s.a.governDecision(Decision{ScaleChange: -1}); got.ScaleChange != 0 {
		t.Errorf("-1 within tolerance not damped: %+v", got)
	}
	if got := s.a.governDecision(Decision{ScaleChange: 5}); got.ScaleChange != 5 {
		t.Errorf("+5 beyond tolerance damped: %+v", got)
	}

	// Scale-down stabilization: the first -5 starts the clock and is
	// held; a -5 before the window elapses is held; after the window
	// it applies.
	if got := s.a.governDecision(Decision{ScaleChange: -5}); got.ScaleChange != 0 {
		t.Errorf("first -5 applied without stabilization: %+v", got)
	}
	s.eng.RunFor(time.Minute)
	if got := s.a.governDecision(Decision{ScaleChange: -5}); got.ScaleChange != 0 {
		t.Errorf("-5 inside stabilization window applied: %+v", got)
	}
	s.eng.RunFor(90 * time.Second)
	if got := s.a.governDecision(Decision{ScaleChange: -5}); got.ScaleChange != -5 {
		t.Errorf("sustained -5 after stabilization held: %+v", got)
	}

	// Cooldown: an immediate second scale-down is held.
	if got := s.a.governDecision(Decision{ScaleChange: -5}); got.ScaleChange != 0 {
		t.Errorf("-5 inside cooldown applied: %+v", got)
	}
	s.eng.RunFor(2 * time.Minute)
	if got := s.a.governDecision(Decision{ScaleChange: -5}); got.ScaleChange != -5 {
		t.Errorf("-5 after cooldown held: %+v", got)
	}

	// An upward proposal resets the down-streak clock.
	if got := s.a.governDecision(Decision{ScaleChange: 5}); got.ScaleChange != 5 {
		t.Fatalf("+5 held: %+v", got)
	}
	s.eng.RunFor(5 * time.Minute)
	if got := s.a.governDecision(Decision{ScaleChange: -5}); got.ScaleChange != 0 {
		t.Errorf("-5 right after an up-proposal applied (streak not reset): %+v", got)
	}

	// Post-panic hold: simulate a panic, downs are suppressed until
	// panicUntil even for a sustained streak.
	s.a.panicSt.panicUntil = s.eng.Now().Add(2 * time.Minute)
	s.a.panicSt.downSince = time.Time{}
	s.eng.RunFor(time.Minute)
	if got := s.a.governDecision(Decision{ScaleChange: -5}); got.ScaleChange != 0 {
		t.Errorf("-5 inside post-panic hold applied: %+v", got)
	}
}

// TestPanicCheckerStopsOnCrash: the fast path dies with the
// controller and re-arms on restore.
func TestPanicCheckerStopsOnCrash(t *testing.T) {
	s := newStack(t, kubesim.Config{InitialNodes: 2, MaxNodes: 10},
		Config{InitialWorkers: 2, Panic: PanicConfig{Enabled: true}})
	s.eng.RunFor(time.Minute)
	if s.a.panicSt.ticker == nil {
		t.Fatal("panic checker not armed on Start")
	}
	st := s.a.Crash()
	if s.a.panicSt.ticker != nil {
		t.Fatal("panic checker still armed after Crash")
	}
	s.eng.RunFor(time.Minute)
	s.a.Restore(st)
	if s.a.panicSt.ticker == nil {
		t.Fatal("panic checker not re-armed after Restore")
	}
	s.eng.RunFor(time.Minute)
}
