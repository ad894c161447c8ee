package arbiter

import (
	"hta/internal/bind"
	"hta/internal/kubesim"
)

// Arbiter crash-consistency. The durable state a real control plane
// would keep in etcd is small: the fair-share configuration and
// virtual-service counters (the deficit-round-robin memory — losing
// it would silently re-bias sub-quantum rotation toward low indices),
// plus each tenant's pod books. Everything else — demand memos,
// dirty flags, the allocation scratch — is cache, rebuilt on restore.
// Crash wipes the caches and bumps the incarnation counter that
// fences callbacks registered by the dead arbiter; Restore loads the
// snapshot and reconciles it against the live cluster and masters, so
// pods that started, finished draining, or died during the outage are
// adopted, released, or requeued instead of leaking.

// Snapshot is the arbiter's durable state.
type Snapshot struct {
	// Gen is the incarnation that took the snapshot.
	Gen int
	// Tenants holds per-tenant durable state in add order.
	Tenants []TenantSnapshot
}

// TenantSnapshot is one tenant's slice of the durable state.
type TenantSnapshot struct {
	ID string
	// Fair-share configuration (mirrors TenantConfig after clamping).
	Weight int64
	Floor  int64
	Ceil   int64
	Prio   int32
	// Vsvc is the deficit-round-robin virtual-service counter.
	Vsvc int64
	// PodSeq is the worker-pod name sequence.
	PodSeq int
	// Pods are the tenant's booked worker pods, sorted by name.
	Pods []PodRecord
}

// PodRecord books one worker pod.
type PodRecord struct {
	Name  string
	State int32 // bind.PodState
}

// Snapshot captures the arbiter's durable state without disturbing
// it.
func (a *Arbiter) Snapshot() Snapshot {
	snap := Snapshot{Gen: a.gen}
	if len(a.tenants) > 0 {
		snap.Tenants = make([]TenantSnapshot, 0, len(a.tenants))
	}
	for _, t := range a.tenants {
		ts := TenantSnapshot{
			ID:     t.cfg.ID,
			Weight: a.al.weight[t.idx],
			Floor:  a.al.floor[t.idx],
			Ceil:   a.al.ceil[t.idx],
			Prio:   a.al.prio[t.idx],
			Vsvc:   a.al.vsvc[t.idx],
			PodSeq: t.pods.Seq(),
		}
		for _, name := range t.pods.Sorted() {
			st, _ := t.pods.State(name)
			ts.Pods = append(ts.Pods, PodRecord{Name: name, State: int32(st)})
		}
		snap.Tenants = append(snap.Tenants, ts)
	}
	return snap
}

// Crash fails the arbiter in place: the returned snapshot is the
// durable state (what survived outside the process), everything else
// is wiped, the cycle ticker stops, and the incarnation counter
// advances so drain callbacks registered by this incarnation are
// fenced. Pod events during the outage are dropped (Restore's
// reconcile recovers them); the tenants' masters and workers keep
// running untouched — the blast radius of an arbiter crash is scaling
// decisions, not in-flight work. Returns ok=false if already down.
func (a *Arbiter) Crash() (Snapshot, bool) {
	if a.down {
		return Snapshot{}, false
	}
	snap := a.Snapshot()
	if a.ticker != nil {
		a.ticker.Stop()
		a.ticker = nil
	}
	for _, t := range a.tenants {
		t.pods.Reset(0)
		t.lastRev = ^uint64(0)
		t.dirty = false
		t.demand = 0
	}
	clear(a.podOwner)
	a.down = true
	a.gen++
	for _, t := range a.tenants {
		t.drained = a.drainDone(t)
	}
	return snap, true
}

// Restore restarts a crashed arbiter from a snapshot: per-tenant
// fair-share state and pod books are loaded (matched by tenant ID;
// snapshot tenants that no longer exist are dropped), then each
// tenant is reconciled against the live cluster and its master, and
// pods created by the dead incarnation after its snapshot are adopted
// back via their labels. If the arbitration loop was started it
// resumes, one full cycle after the restore.
func (a *Arbiter) Restore(snap Snapshot) {
	a.down = false
	a.stats.Restores++
	for _, ts := range snap.Tenants {
		t, ok := a.byID[ts.ID]
		if !ok {
			continue
		}
		i := t.idx
		a.al.weight[i] = ts.Weight
		a.al.floor[i] = ts.Floor
		a.al.ceil[i] = ts.Ceil
		a.al.prio[i] = ts.Prio
		a.al.vsvc[i] = ts.Vsvc
		a.al.classDirty = true
		t.pods.Reset(ts.PodSeq)
		for _, pr := range ts.Pods {
			if pr.State < int32(bind.PodCreating) || pr.State > int32(bind.PodDraining) {
				continue
			}
			t.pods.Set(pr.Name, bind.PodState(pr.State))
			a.podOwner[pr.Name] = t
		}
	}
	for _, t := range a.tenants {
		a.reconcileTenant(t, false)
		a.adoptUnbooked(t)
		t.lastRev = ^uint64(0)
		t.dirty = true
	}
	if a.started && a.ticker == nil {
		a.ticker = a.eng.Every(a.cfg.Cycle, "arbiter-cycle", a.RunCycle)
	}
}

// adoptUnbooked finds the tenant's worker pods the snapshot does not
// know — created by the dead incarnation after its snapshot — via
// their labels, and books them by observed phase. Their names also
// advance the pod sequence past any adopted suffix so the restored
// arbiter never reuses a live name.
func (a *Arbiter) adoptUnbooked(t *Tenant) {
	for _, pod := range a.cluster.ListPods(t.pods.Labels()) {
		if !t.pods.Adopt(pod) {
			continue
		}
		if pod.Phase == kubesim.PodRunning && !t.master.Down() {
			_ = t.pods.Connect(pod.Name, pod.Resources)
		}
		a.podOwner[pod.Name] = t
		a.stats.ReconcileCorrections++
	}
}
