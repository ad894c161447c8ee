// Package bind glues the pod world to the Work Queue world for
// scenarios where something other than HTA owns the worker pods (the
// HPA and queue-proportional baselines, and tests).
package bind

import (
	"fmt"

	"hta/internal/kubesim"
	"hta/internal/resources"
	"hta/internal/wq"
)

// Binder is the handle Workers returns. It records binding failures —
// a duplicate worker identity, a pod death whose worker the master no
// longer knows — instead of discarding them; callers check Err once
// the run finishes. Like the components it binds, it is driven from
// the single simulation goroutine.
type Binder struct {
	errs []error
}

// Err returns the first recorded binding failure, or nil.
func (b *Binder) Err() error {
	if len(b.errs) == 0 {
		return nil
	}
	return b.errs[0]
}

// Workers connects a cluster's pods to a master: every matching pod that reaches Running joins
// the master as a worker with the pod's requested resources, reports
// its live usage to the metrics server, and is disconnected — with
// its running tasks requeued — when the pod is deleted. Failures of
// either hand-off accumulate on the returned Binder: a pod roster and
// a worker roster that silently disagree would corrupt every
// requeue-accounting experiment built on this glue.
func Workers(cluster *kubesim.Cluster, master *wq.Master, selector map[string]string) *Binder {
	b := &Binder{}
	connected := make(map[string]bool)
	cluster.OnPod(func(ev kubesim.PodWatchEvent) {
		name := ev.Pod.Name
		if !ev.Pod.MatchesSelector(selector) {
			return
		}
		switch {
		case ev.Type == kubesim.Modified && ev.Reason == kubesim.ReasonStarted:
			if connected[name] {
				return
			}
			if err := master.AddWorker(name, ev.Pod.Resources); err != nil {
				b.errs = append(b.errs, fmt.Errorf("bind: add worker %s: %w", name, err))
				return
			}
			connected[name] = true
			_ = cluster.SetPodUsage(name, func() resources.Vector {
				return master.WorkerUsage(name)
			})
		case ev.Type == kubesim.Deleted:
			if connected[name] {
				delete(connected, name)
				if err := master.KillWorker(name); err != nil {
					b.errs = append(b.errs, fmt.Errorf("bind: kill worker %s: %w", name, err))
				}
			}
		}
	})
	return b
}
