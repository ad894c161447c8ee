package metrics

import "time"

// RecoveryCounters aggregates control-plane crash/recovery activity
// across one run: how often each component restarted and how much
// state the recovery machinery carried across the restarts. The wq
// master fills the task-level counters and Downtime; the experiment
// harness fills the restart and replay counters.
type RecoveryCounters struct {
	// MakeflowRestarts, MasterRestarts and OperatorRestarts count
	// crash/restart cycles delivered to each component.
	MakeflowRestarts int
	MasterRestarts   int
	OperatorRestarts int

	// RescuedTasks counts running tasks re-adopted from reattaching
	// workers after a master restart instead of being rescheduled.
	RescuedTasks int
	// FencedAttempts counts stale in-flight attempts rejected by the
	// generation fence (the task had been superseded while the worker
	// was away).
	FencedAttempts int
	// RequeuedUnrescued counts running tasks whose worker never
	// reattached within the rescue window; they are retried with
	// backoff, without consuming a retry-budget slot.
	RequeuedUnrescued int
	// ReplayedRecords counts transaction-log records applied by
	// makeflow restarts.
	ReplayedRecords int
	// SkippedRules counts DAG rules recovery completed from the journal
	// (work not redone).
	SkippedRules int
	// ReconcileCorrections counts divergences a restarted autoscaler or
	// operator fixed while reconciling its persisted state against the
	// live cluster (adopted pods, re-registered workers, reset drains).
	ReconcileCorrections int

	// Downtime is the total crash-to-restore time the component spent
	// down, accumulated across its restarts (the wq master fills it on
	// Restore).
	Downtime time.Duration
}

// Add accumulates o into c.
func (c *RecoveryCounters) Add(o RecoveryCounters) {
	c.MakeflowRestarts += o.MakeflowRestarts
	c.MasterRestarts += o.MasterRestarts
	c.OperatorRestarts += o.OperatorRestarts
	c.RescuedTasks += o.RescuedTasks
	c.FencedAttempts += o.FencedAttempts
	c.RequeuedUnrescued += o.RequeuedUnrescued
	c.ReplayedRecords += o.ReplayedRecords
	c.SkippedRules += o.SkippedRules
	c.ReconcileCorrections += o.ReconcileCorrections
	c.Downtime += o.Downtime
}

// ClusterRecovery merges per-tenant recovery counters into one
// cluster-level view for runs where many masters share a cluster
// (experiment E-K). Like ClusterOverload, it is NOT Add repeated: Add
// was written for sequential restarts of the same component, where
// summing Downtime is exact. Across masters running concurrently the
// event counts still sum exactly — each restart, rescue and fence
// belongs to exactly one master — but downtime windows overlap in
// wall time, so summing would double-count; the maximum single-master
// Downtime is the tightest lower bound on the union of the windows
// the counters can express.
func ClusterRecovery(perMaster []RecoveryCounters) RecoveryCounters {
	var c RecoveryCounters
	for _, o := range perMaster {
		c.MakeflowRestarts += o.MakeflowRestarts
		c.MasterRestarts += o.MasterRestarts
		c.OperatorRestarts += o.OperatorRestarts
		c.RescuedTasks += o.RescuedTasks
		c.FencedAttempts += o.FencedAttempts
		c.RequeuedUnrescued += o.RequeuedUnrescued
		c.ReplayedRecords += o.ReplayedRecords
		c.SkippedRules += o.SkippedRules
		c.ReconcileCorrections += o.ReconcileCorrections
		if o.Downtime > c.Downtime {
			c.Downtime = o.Downtime
		}
	}
	return c
}
