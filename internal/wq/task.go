// Package wq implements a Work Queue-style master/worker job
// scheduler: a master holds a queue of tasks, workers with declared
// resource capacities connect to it, and the master dispatches tasks
// first-fit onto workers. When a task's resource requirements are
// unknown the master falls back to the conservative policy of the
// paper's §III-A — one task per worker, holding the whole worker —
// until a resource estimator (fed by completed-task measurements)
// can size tasks of the same category.
//
// The package provides a fully simulated runtime (Master) driven by a
// discrete-event engine, used by the autoscaling experiments, and a
// TCP wire protocol (subpackage wire) with the same task model for
// running a real master and workers across processes.
package wq

import (
	"fmt"
	"time"

	"hta/internal/resources"
)

// TaskState is the lifecycle state of a task at the master. It is a
// byte so that it packs beside Task.Exclusive.
type TaskState uint8

// Task states.
const (
	TaskWaiting     TaskState = iota // queued at the master
	TaskRunning                      // dispatched to a worker
	TaskComplete                     // finished and retrieved
	TaskCanceled                     // withdrawn by the client
	TaskQuarantined                  // retry budget exhausted; never resubmitted
	TaskRejected                     // shed at the admission hard cap; never queued
)

// String returns the lower-case state name.
func (s TaskState) String() string {
	switch s {
	case TaskWaiting:
		return "waiting"
	case TaskRunning:
		return "running"
	case TaskComplete:
		return "complete"
	case TaskCanceled:
		return "canceled"
	case TaskQuarantined:
		return "quarantined"
	case TaskRejected:
		return "rejected"
	}
	return fmt.Sprintf("taskstate(%d)", int(s))
}

// File is a named input artifact with its size.
type File struct {
	Name   string
	SizeMB float64
}

// Profile describes how a task behaves when executed; the simulated
// worker uses it to model transfers, execution time and resource
// consumption. Generators calibrate profiles to the paper's
// workloads.
type Profile struct {
	// ExecDuration is the task's execution time once all inputs are
	// present on the worker.
	ExecDuration time.Duration
	// UsedCPUMilli is the CPU the task actually consumes while
	// executing (e.g. ≈870 for a BLAST alignment, ≈150 for an
	// I/O-bound dd task).
	UsedCPUMilli int64
	// UsedMemoryMB is the peak memory consumption.
	UsedMemoryMB int64
	// UsedDiskMB is the peak scratch-disk consumption.
	UsedDiskMB int64
}

// Usage converts the profile's consumption into a resource vector.
func (p Profile) Usage() resources.Vector {
	return resources.Vector{MilliCPU: p.UsedCPUMilli, MemoryMB: p.UsedMemoryMB, DiskMB: p.UsedDiskMB}
}

// TaskSpec is what a client submits.
type TaskSpec struct {
	// Tag is an opaque client identifier (e.g. the DAG node ID).
	Tag string
	// Ref is an opaque client reference returned with the task's
	// result; a workflow runner sets it to resolve a completion to its
	// node without hashing Tag. Zero means unset.
	Ref int32
	// Command is the shell command (executed verbatim by real
	// workers; informational in simulation).
	Command string
	// Category tags tasks that are copies of the same program;
	// the resource monitor aggregates measurements per category.
	Category string
	// Priority orders dispatch: higher-priority tasks are considered
	// first; ties keep submission order (Work Queue semantics).
	Priority int
	// Resources is the declared requirement; the zero vector means
	// unknown.
	Resources resources.Vector
	// SharedInputs are cacheable input files (fetched once per
	// worker, e.g. the 1.4 GB BLAST database).
	SharedInputs []File
	// InputMB is the task-private input size.
	InputMB float64
	// OutputMB is the output size transferred back to the master.
	OutputMB float64
	// Profile models the task's execution (simulation only).
	Profile Profile
}

// Task is the master's record of a submitted task. The master holds
// the record while the task is waiting or running and after it is
// canceled, quarantined or rejected. A completed task's record goes
// out whole in its Result, and the master then releases it and reuses
// its storage for a later submission (see Master.Task).
type Task struct {
	ID int
	TaskSpec

	WorkerID string // worker currently (or last) hosting the task
	Attempts int    // dispatch count, >1 after requeues
	// Gen is the attempt generation, bumped on every dispatch. After a
	// master restart it fences stale attempts: a reattaching worker
	// reporting an in-flight task is only allowed to resume it when its
	// generation matches the restored record (see AttachWorker).
	Gen int

	SubmittedAt time.Time
	StartedAt   time.Time // last dispatch time
	FinishedAt  time.Time

	// Allocated is the resource amount the task held on its worker
	// during its last run (its declared size, an estimate, or the
	// whole worker in conservative mode).
	Allocated resources.Vector
	// Exclusive records that the task ran alone holding the whole
	// worker (conservative mode).
	Exclusive bool
	State     TaskState
	// Measured is the observed consumption reported at completion.
	Measured resources.Vector
	// ExecWall is the measured wall time from dispatch to completion
	// (transfers included).
	ExecWall time.Duration
}

// Result is delivered to completion subscribers.
type Result struct {
	// Task is a copy of the completed task: the master's last word on
	// it, since the master releases the record once every subscriber
	// has seen this Result.
	Task Task
}

// Estimator predicts resource requirements and execution time for a
// task category from completed-task measurements. The resource
// monitor implements it.
type Estimator interface {
	// EstimateResources returns the predicted per-task requirement
	// for the category, and whether a prediction is available.
	EstimateResources(category string) (resources.Vector, bool)
	// EstimateExecTime returns the predicted execution time for the
	// category, and whether a prediction is available.
	EstimateExecTime(category string) (time.Duration, bool)
}
