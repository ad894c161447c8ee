package dag

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// jsonGraph is the serialized form: just the nodes — edges are
// derivable from the file dependencies, so the on-disk format stays
// stable and human-editable.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
}

type jsonNode struct {
	ID        string   `json:"id"`
	Command   string   `json:"command,omitempty"`
	Category  string   `json:"category,omitempty"`
	Inputs    []string `json:"inputs,omitempty"`
	Outputs   []string `json:"outputs,omitempty"`
	CoresM    int64    `json:"cores_milli,omitempty"`
	MemoryMB  int64    `json:"memory_mb,omitempty"`
	DiskMB    int64    `json:"disk_mb,omitempty"`
	EstimateS float64  `json:"estimate_s,omitempty"`
	Local     bool     `json:"local,omitempty"`
}

// WriteJSON serializes the graph's nodes (in insertion order). The
// runtime state is not serialized; a reloaded graph starts fresh.
func (g *Graph) WriteJSON(w io.Writer) error {
	out := jsonGraph{Nodes: make([]jsonNode, len(g.nodes))}
	for i, n := range g.nodes {
		out.Nodes[i] = jsonNode{
			ID:        n.ID,
			Command:   n.Command,
			Category:  n.Category,
			Inputs:    n.Inputs,
			Outputs:   n.Outputs,
			CoresM:    n.Resources.MilliCPU,
			MemoryMB:  n.Resources.MemoryMB,
			DiskMB:    n.Resources.DiskMB,
			EstimateS: n.EstimatedDuration.Seconds(),
			Local:     n.Local,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON deserializes a graph written by WriteJSON and finalizes
// it, re-deriving the dependency edges from the file lists.
func ReadJSON(r io.Reader) (*Graph, error) {
	var in jsonGraph
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("dag: decode: %w", err)
	}
	g := NewGraph()
	for _, jn := range in.Nodes {
		n := Node{
			ID:                jn.ID,
			Command:           jn.Command,
			Category:          jn.Category,
			Inputs:            jn.Inputs,
			Outputs:           jn.Outputs,
			EstimatedDuration: time.Duration(jn.EstimateS * float64(time.Second)),
			Local:             jn.Local,
		}
		n.Resources.MilliCPU = jn.CoresM
		n.Resources.MemoryMB = jn.MemoryMB
		n.Resources.DiskMB = jn.DiskMB
		if err := g.Add(n); err != nil {
			return nil, err
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	return g, nil
}
