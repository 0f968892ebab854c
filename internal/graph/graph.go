// Package graph defines the dataflow-graph abstraction that stands in for a
// TensorFlow graph in the Olympian reproduction.
//
// A Graph is a tree of Nodes (a deterministic spanning order of the
// conceptual DAG): each node carries its device placement, its solo
// execution duration, and — for GPU nodes — the SM occupancy of the kernel
// it launches. The middleware (internal/executor) traverses the tree exactly
// as TF-Serving's processing loop does (Algorithm 1 in the paper): breadth-
// first, with asynchronous children handed to fresh threads.
package graph

import (
	"fmt"
	"sort"
	"time"
)

// Device is the placement of a node.
type Device int

// Device placements.
const (
	CPU Device = iota + 1
	GPU
)

// String returns the conventional device label.
func (d Device) String() string {
	switch d {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

// Node is a single operation in a dataflow graph.
type Node struct {
	// ID is the node's index in Graph.Nodes, assigned by Finalize.
	ID int
	// Op is the operation name, e.g. "Conv2D". Nodes with the same Op form
	// a class for the profiler's linear cost models.
	Op string
	// Device is where the node executes.
	Device Device
	// Duration is the node's solo execution time: kernel time for GPU
	// nodes, compute time for CPU nodes.
	Duration time.Duration
	// Occupancy is the fraction of the GPU's SM capacity the node's kernel
	// occupies, in (0,1]. Zero for CPU nodes.
	Occupancy float64
	// Async marks nodes whose execution is handed to a separate thread by
	// the processing loop (GPU-backed nodes in TF-Serving).
	Async bool
	// Children are the nodes unlocked when this node completes.
	Children []*Node
}

// IsGPU reports whether the node runs on the GPU.
func (n *Node) IsGPU() bool { return n.Device == GPU }

// Graph is a model's dataflow graph for one batch size.
type Graph struct {
	// Model is the model name, e.g. "inception-v4".
	Model string
	// BatchSize is the input batch size the graph was built for.
	BatchSize int
	// Root is the entry node.
	Root *Node
	// Nodes lists every node in deterministic (BFS) order; assigned by
	// Finalize.
	Nodes []*Node
}

// Finalize assigns IDs in BFS order and populates g.Nodes. It must be called
// once after construction and returns an error if the node structure is not
// a tree (a node reachable twice would be executed twice by Algorithm 1).
func (g *Graph) Finalize() error {
	if g.Root == nil {
		return fmt.Errorf("graph %s: nil root", g.Model)
	}
	seen := make(map[*Node]bool)
	queue := []*Node{g.Root}
	g.Nodes = g.Nodes[:0]
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			return fmt.Errorf("graph %s: node %q reachable twice", g.Model, n.Op)
		}
		seen[n] = true
		n.ID = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
		queue = append(queue, n.Children...)
	}
	return g.validate()
}

func (g *Graph) validate() error {
	for _, n := range g.Nodes {
		if n.Duration < 0 {
			return fmt.Errorf("graph %s: node %d (%s) has negative duration", g.Model, n.ID, n.Op)
		}
		switch n.Device {
		case GPU:
			if n.Occupancy <= 0 || n.Occupancy > 1 {
				return fmt.Errorf("graph %s: node %d (%s) occupancy %.3f out of (0,1]", g.Model, n.ID, n.Op, n.Occupancy)
			}
		case CPU:
			if n.Occupancy != 0 {
				return fmt.Errorf("graph %s: CPU node %d (%s) has occupancy", g.Model, n.ID, n.Op)
			}
			if n.Async {
				return fmt.Errorf("graph %s: CPU node %d (%s) marked async", g.Model, n.ID, n.Op)
			}
		default:
			return fmt.Errorf("graph %s: node %d (%s) has no device", g.Model, n.ID, n.Op)
		}
	}
	return nil
}

// Stats summarises a graph for Table 2-style reporting.
type Stats struct {
	Model       string
	BatchSize   int
	Nodes       int
	GPUNodes    int
	CPUNodes    int
	GPUWork     time.Duration // sum of GPU node durations
	CPUWork     time.Duration // sum of CPU node durations
	MaxDuration time.Duration
}

// Stats computes summary statistics over the graph's nodes.
func (g *Graph) Stats() Stats {
	s := Stats{Model: g.Model, BatchSize: g.BatchSize, Nodes: len(g.Nodes)}
	for _, n := range g.Nodes {
		if n.IsGPU() {
			s.GPUNodes++
			s.GPUWork += n.Duration
		} else {
			s.CPUNodes++
			s.CPUWork += n.Duration
		}
		if n.Duration > s.MaxDuration {
			s.MaxDuration = n.Duration
		}
	}
	return s
}

// GPUDurations returns the sorted solo durations of all GPU nodes, the raw
// material for the paper's Figure 4 CDF.
func (g *Graph) GPUDurations() []time.Duration {
	var out []time.Duration
	for _, n := range g.Nodes {
		if n.IsGPU() {
			out = append(out, n.Duration)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
