package arbiter

import (
	"fmt"
	"slices"
	"time"

	"hta/internal/bind"
	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/wq"
)

// Tenant lifecycle: churn (offboarding, removal), per-tenant master
// crashes, and the crash-loop quarantine breaker. The design goal is
// blast-radius containment — whatever happens to one tenant, the
// other tenants' capacity math is affected only through the
// water-filling pool (they absorb the freed share next cycle) and
// never through dangling pods, leaked callbacks or broken books.

// QuarantinePolicy configures the crash-looping-tenant breaker: a
// tenant whose master crashes CrashThreshold times within Window has
// its demand forced to zero (and its pods drained) for an
// exponentially growing backoff, releasing even its quota floor to
// the healthy tenants until the breaker closes. The zero value
// disables the breaker.
type QuarantinePolicy struct {
	// CrashThreshold trips the breaker after this many crashes inside
	// Window (0 = disabled).
	CrashThreshold int
	// Window is the sliding window crashes are counted in (0 = count
	// every crash, forever).
	Window time.Duration
	// Backoff is the first quarantine duration; each subsequent trip
	// doubles it, capped at BackoffMax (0 = uncapped).
	Backoff    time.Duration
	BackoffMax time.Duration
}

// quarantinedAt reports whether the breaker is open at now.
func (t *Tenant) quarantinedAt(now time.Time) bool { return t.quarUntil.After(now) }

// Leaving reports whether the tenant is offboarding (demand zero,
// pods draining, pending work settled).
func (t *Tenant) Leaving() bool { return t.leaving }

// OffboardTenant begins a graceful departure: the tenant's pending
// (never-started) work is settled as quarantined in its master — so
// the per-tenant conservation invariant submitted = completed +
// quarantined (+ shed) holds through the departure — its pods are
// drained (running tasks finish, they are never killed), and its
// demand is forced to zero so the freed capacity water-fills across
// the remaining tenants on the very next cycle. Once the last pod is
// gone and no work is in flight the tenant is removed from the
// allocation vectors entirely. Idempotent.
func (a *Arbiter) OffboardTenant(id string) error {
	t, ok := a.byID[id]
	if !ok {
		return fmt.Errorf("arbiter: offboard of unknown tenant %q", id)
	}
	if t.leaving {
		return nil
	}
	if t.master.Down() {
		return fmt.Errorf("arbiter: tenant %q master is down; restore it before offboarding", id)
	}
	t.leaving = true
	t.dirty = true
	t.master.FailAllPending()
	a.drainTenantPods(t)
	a.maybeSettle(t)
	return nil
}

// maybeSettle arms a zero-delay settlement check for an offboarding
// tenant whose last pod just disappeared. The check runs from its own
// event so settlement never happens re-entrantly inside a drain
// callback, pod event or plan loop.
func (a *Arbiter) maybeSettle(t *Tenant) {
	if !t.leaving || t.removed || t.settleArmed || t.pods.Len() > 0 {
		return
	}
	t.settleArmed = true
	a.eng.After(0, "arbiter-offboard-"+t.cfg.ID, func() {
		t.settleArmed = false
		a.settle(t)
	})
}

// settle removes an offboarding tenant once it is quiescent. Work
// still running (on some other tenant's books it cannot be — drains
// never kill) defers to a later check; stragglers re-surfaced by a
// rescue window or a pod kill are settled with a second
// FailAllPending sweep.
func (a *Arbiter) settle(t *Tenant) {
	if !t.leaving || t.removed || t.pods.Len() > 0 || a.down {
		return
	}
	st := t.master.Stats()
	if st.Running > 0 {
		return // a drain is still finishing; its callback re-arms us
	}
	if st.Waiting > 0 {
		// Stragglers requeued after the first sweep (pod killed under
		// a running task, retry backoffs). Rescue-window survivors are
		// not yet waiting-state and defer to the next cycle's check.
		t.master.FailAllPending()
		if st = t.master.Stats(); st.Waiting > 0 || st.Running > 0 {
			return
		}
	}
	a.removeTenantNow(t)
}

// removeTenantNow splices the tenant out of every arbiter structure.
// The tenant's master survives (callers keep final per-tenant
// accounting); the Tenant struct is marked removed and detached.
func (a *Arbiter) removeTenantNow(t *Tenant) {
	t.removed = true
	t.leaving = true
	i := t.idx
	a.tenants = slices.Delete(a.tenants, i, i+1)
	for j := i; j < len(a.tenants); j++ {
		a.tenants[j].idx = j
	}
	delete(a.byID, t.cfg.ID)
	a.al.removeTenant(i)
	a.demand = slices.Delete(a.demand, i, i+1)
	a.grant = slices.Delete(a.grant, i, i+1)
	a.stats.TenantsRemoved++
}

// CrashTenantMaster fails one tenant's master in place (the PR-4
// crash model: scheduled work lost, workers detached, timers
// stopped). The arbiter holds the snapshot and the reattach records —
// the durable state a real deployment keeps outside the process —
// until RestoreTenantMaster. The blast radius is one tenant: its
// demand reads zero while down, so its share water-fills across the
// healthy tenants, and its pods stay booked (workers reconnect on
// restore).
func (a *Arbiter) CrashTenantMaster(id string) error {
	t, ok := a.byID[id]
	if !ok {
		return fmt.Errorf("arbiter: crash of unknown tenant %q", id)
	}
	if t.leaving {
		return fmt.Errorf("arbiter: tenant %q is offboarding", id)
	}
	if t.master.Down() {
		return fmt.Errorf("arbiter: tenant %q master already down", id)
	}
	t.masterSnap, t.reattach = t.master.Crash()
	t.dirty = true
	a.stats.TenantCrashes++
	a.noteTenantCrash(t)
	return nil
}

// RestoreTenantMaster restarts a crashed tenant master from the held
// snapshot, reattaches the workers whose pods are still alive and
// booked (their in-flight attempts rescue instead of rescheduling),
// and reconciles the tenant's pod books against the cluster — pods
// that started or died during the outage are adopted or released
// here.
func (a *Arbiter) RestoreTenantMaster(id string, rescueWindow time.Duration) error {
	t, ok := a.byID[id]
	if !ok {
		return fmt.Errorf("arbiter: restore of unknown tenant %q", id)
	}
	if !t.master.Down() {
		return fmt.Errorf("arbiter: tenant %q master is not down", id)
	}
	t.master.Restore(t.masterSnap, rescueWindow)
	t.masterSnap = wq.Snapshot{}
	for _, w := range t.reattach {
		st, booked := t.pods.State(w.ID)
		if !booked || st == bind.PodCreating {
			continue
		}
		if _, live := a.cluster.GetPod(w.ID); !live {
			// The pod died while the master was down; its attempts
			// expire through the rescue window.
			t.pods.Forget(w.ID)
			delete(a.podOwner, w.ID)
			a.stats.ReconcileCorrections++
			continue
		}
		if err := t.master.AttachWorker(w); err == nil {
			t.pods.ReportUsage(w.ID)
		}
	}
	t.reattach = nil
	a.reconcileTenant(t, true)
	t.dirty = true
	return nil
}

// noteTenantCrash feeds the crash-loop breaker. On trip: demand stays
// zero (and the floor is released) for an exponentially growing
// backoff, and the tenant's pods are drained so even its held
// capacity returns to the pool — a tenant that keeps killing its
// master must not pin workers it cannot use.
func (a *Arbiter) noteTenantCrash(t *Tenant) {
	p := a.cfg.Quarantine
	if p.CrashThreshold <= 0 {
		return
	}
	now := a.eng.Now()
	if p.Window > 0 {
		cut := now.Add(-p.Window)
		keep := t.crashLog[:0]
		for _, at := range t.crashLog {
			if at.After(cut) {
				keep = append(keep, at)
			}
		}
		t.crashLog = keep
	}
	t.crashLog = append(t.crashLog, now)
	if len(t.crashLog) < p.CrashThreshold {
		return
	}
	t.crashLog = t.crashLog[:0]
	d := p.Backoff
	if d <= 0 {
		d = a.cfg.Cycle
	}
	for i := 0; i < t.quarCount; i++ {
		d *= 2
		if p.BackoffMax > 0 && d >= p.BackoffMax {
			d = p.BackoffMax
			break
		}
	}
	if p.BackoffMax > 0 && d > p.BackoffMax {
		d = p.BackoffMax
	}
	t.quarCount++
	t.quarUntil = now.Add(d)
	t.dirty = true
	a.stats.QuarantineTrips++
	a.drainTenantPods(t)
	a.eng.After(d, "arbiter-quarantine-expire-"+t.cfg.ID, func() {
		// Re-plan the tenant on the first cycle after the breaker
		// closes (quarantinedAt is already false by then).
		t.dirty = true
	})
}

// reconcileTenant repairs one tenant's pod books against the live
// cluster and master after a restore. adoptActive selects the policy
// for a pod booked active whose worker the master does not know:
// after a tenant-master restore the worker simply reconnects (adopt);
// after an arbiter restore the missing worker means the old
// incarnation had already drained it (its fenced callback never
// deleted the pod), so the pod is released. Every divergence fixed
// increments ReconcileCorrections.
func (a *Arbiter) reconcileTenant(t *Tenant, adoptActive bool) {
	names := t.pods.Sorted()
	masterUp := !t.master.Down()
	workers := make(map[string]bool, len(names)) // connected -> draining
	if masterUp {
		t.master.ForEachWorker(func(id string, _ resources.Vector, draining bool) {
			workers[id] = draining
		})
	}
	for _, name := range names {
		st, _ := t.pods.State(name)
		draining, present := workers[name]
		pod, live := a.cluster.GetPod(name)
		if !live || pod.Phase == kubesim.PodSucceeded {
			// The pod died (or finished) unseen: requeue its attempts
			// if the master still counts it, and drop the book.
			t.pods.Forget(name)
			delete(a.podOwner, name)
			if present {
				_ = t.master.KillWorker(name)
			}
			a.stats.ReconcileCorrections++
			continue
		}
		if !masterUp {
			// Cannot consult the master; RestoreTenantMaster's own
			// reconcile finishes the job.
			continue
		}
		switch {
		case st == bind.PodCreating:
			if pod.Phase == kubesim.PodRunning && !present {
				// Started while we were down (the watch event was
				// dropped): promote and connect.
				t.pods.Set(name, bind.PodActive)
				_ = t.pods.Connect(name, pod.Resources)
				a.stats.ReconcileCorrections++
			}
		case !present && st == bind.PodActive && adoptActive:
			_ = t.pods.Connect(name, pod.Resources)
			a.stats.ReconcileCorrections++
		case !present:
			// The drain finished while we were down; the fenced
			// callback could not delete the pod. Do it now.
			t.pods.Release(name)
			a.stats.ReconcileCorrections++
		case st == bind.PodDraining || draining:
			// A drain is open, started by us or by the dead
			// incarnation: book it and register our callback over the
			// fenced one (DrainWorker on a draining worker replaces it).
			if st != bind.PodDraining || !draining {
				a.stats.ReconcileCorrections++
			}
			t.pods.Set(name, bind.PodDraining)
			t.pods.DrainWorker(name, t.drained)
		}
	}
	t.dirty = true
	a.maybeSettle(t)
}
