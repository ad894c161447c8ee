// Package kubeclient is a minimal, dependency-free Kubernetes REST
// client covering exactly the API surface the HTA operator needs:
// pod CRUD, node listing, and label-selector watches. It speaks the
// real API-server wire format (JSON objects, `?watch=true` streaming
// event frames, `labelSelector` queries), so it works against a real
// cluster; the sibling kubetest package provides an in-process fake
// API server for offline tests.
package kubeclient

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ObjectMeta is the metadata block common to all objects.
type ObjectMeta struct {
	Name              string            `json:"name"`
	Namespace         string            `json:"namespace,omitempty"`
	UID               string            `json:"uid,omitempty"`
	Labels            map[string]string `json:"labels,omitempty"`
	CreationTimestamp string            `json:"creationTimestamp,omitempty"`
}

// Created parses the creation timestamp (zero time if unset).
func (m ObjectMeta) Created() time.Time {
	t, err := time.Parse(time.RFC3339, m.CreationTimestamp)
	if err != nil {
		return time.Time{}
	}
	return t
}

// ResourceList maps resource names to quantity strings, e.g.
// {"cpu": "500m", "memory": "4Gi"}.
type ResourceList map[string]string

// ResourceRequirements carries requests and limits.
type ResourceRequirements struct {
	Requests ResourceList `json:"requests,omitempty"`
	Limits   ResourceList `json:"limits,omitempty"`
}

// Container is a pod container.
type Container struct {
	Name      string               `json:"name"`
	Image     string               `json:"image"`
	Command   []string             `json:"command,omitempty"`
	Args      []string             `json:"args,omitempty"`
	Env       []EnvVar             `json:"env,omitempty"`
	Resources ResourceRequirements `json:"resources,omitempty"`
}

// EnvVar is a container environment variable.
type EnvVar struct {
	Name  string `json:"name"`
	Value string `json:"value,omitempty"`
}

// PodSpec is the pod specification subset we use.
type PodSpec struct {
	NodeName      string      `json:"nodeName,omitempty"`
	Containers    []Container `json:"containers"`
	RestartPolicy string      `json:"restartPolicy,omitempty"`
}

// Pod phases.
const (
	PodPending   = "Pending"
	PodRunning   = "Running"
	PodSucceeded = "Succeeded"
	PodFailed    = "Failed"
)

// PodStatus is the status subset we use.
type PodStatus struct {
	Phase     string `json:"phase,omitempty"`
	Reason    string `json:"reason,omitempty"`
	StartTime string `json:"startTime,omitempty"`
	HostIP    string `json:"hostIP,omitempty"`
	PodIP     string `json:"podIP,omitempty"`
}

// Pod is a Kubernetes pod.
type Pod struct {
	APIVersion string     `json:"apiVersion,omitempty"`
	Kind       string     `json:"kind,omitempty"`
	Metadata   ObjectMeta `json:"metadata"`
	Spec       PodSpec    `json:"spec"`
	Status     PodStatus  `json:"status,omitempty"`
}

// PodList is the list envelope.
type PodList struct {
	Items []Pod `json:"items"`
}

// Watch event types, matching the API server's frames.
const (
	WatchAdded    = "ADDED"
	WatchModified = "MODIFIED"
	WatchDeleted  = "DELETED"
)

// PodEvent is one watch frame.
type PodEvent struct {
	Type string `json:"type"`
	Pod  Pod    `json:"object"`
}

// Status is the API server's error envelope.
type Status struct {
	Kind    string `json:"kind,omitempty"`
	Message string `json:"message,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Code    int    `json:"code,omitempty"`
}

// ParseCPUQuantity converts a Kubernetes CPU quantity ("2", "500m",
// "1.5") to millicores.
func ParseCPUQuantity(q string) (int64, error) {
	q = strings.TrimSpace(q)
	if q == "" {
		return 0, fmt.Errorf("kubeclient: empty cpu quantity")
	}
	if strings.HasSuffix(q, "m") {
		n, err := strconv.ParseInt(strings.TrimSuffix(q, "m"), 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("kubeclient: bad millicpu quantity %q", q)
		}
		return n, nil
	}
	f, err := strconv.ParseFloat(q, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("kubeclient: bad cpu quantity %q", q)
	}
	return int64(f * 1000), nil
}

// ParseMemoryQuantity converts a Kubernetes memory quantity ("4Gi",
// "4096Mi", "512Ki", "1000000", "1G", "500M") to mebibytes (binary
// suffixes) or megabytes (decimal suffixes), both reported as MB for
// this repository's resource vectors.
func ParseMemoryQuantity(q string) (int64, error) {
	q = strings.TrimSpace(q)
	if q == "" {
		return 0, fmt.Errorf("kubeclient: empty memory quantity")
	}
	type suffix struct {
		s   string
		mul float64 // bytes
	}
	suffixes := []suffix{
		{"Ki", 1 << 10}, {"Mi", 1 << 20}, {"Gi", 1 << 30}, {"Ti", 1 << 40},
		{"k", 1e3}, {"K", 1e3}, {"M", 1e6}, {"G", 1e9}, {"T", 1e12},
	}
	mul := 1.0
	num := q
	for _, sf := range suffixes {
		if strings.HasSuffix(q, sf.s) {
			mul = sf.mul
			num = strings.TrimSuffix(q, sf.s)
			break
		}
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("kubeclient: bad memory quantity %q", q)
	}
	return int64(f * mul / (1 << 20)), nil
}

// FormatCPUMilli renders millicores as a quantity string.
func FormatCPUMilli(milli int64) string {
	if milli%1000 == 0 {
		return strconv.FormatInt(milli/1000, 10)
	}
	return fmt.Sprintf("%dm", milli)
}

// FormatMemoryMB renders mebibytes as a quantity string.
func FormatMemoryMB(mb int64) string { return fmt.Sprintf("%dMi", mb) }
