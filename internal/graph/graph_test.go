package graph

import (
	"testing"
	"testing/quick"
	"time"
)

func chain(n int, dev Device, d time.Duration) (*Node, *Node) {
	var head, tail *Node
	for i := 0; i < n; i++ {
		node := &Node{Op: "op", Device: dev, Duration: d}
		if dev == GPU {
			node.Occupancy = 1.0
		}
		if head == nil {
			head, tail = node, node
		} else {
			tail.Children = append(tail.Children, node)
			tail = node
		}
	}
	return head, tail
}

func TestFinalizeAssignsBFSIDs(t *testing.T) {
	a := &Node{Op: "a", Device: CPU, Duration: time.Microsecond}
	b := &Node{Op: "b", Device: CPU, Duration: time.Microsecond}
	c := &Node{Op: "c", Device: CPU, Duration: time.Microsecond}
	d := &Node{Op: "d", Device: CPU, Duration: time.Microsecond}
	a.Children = []*Node{b, c}
	b.Children = []*Node{d}
	g := &Graph{Model: "m", BatchSize: 1, Root: a}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	wantOps := []string{"a", "b", "c", "d"}
	for i, n := range g.Nodes {
		if n.Op != wantOps[i] || n.ID != i {
			t.Fatalf("node %d = %s (id %d), want %s", i, n.Op, n.ID, wantOps[i])
		}
	}
}

func TestFinalizeRejectsSharedNodes(t *testing.T) {
	shared := &Node{Op: "shared", Device: CPU, Duration: time.Microsecond}
	root := &Node{Op: "root", Device: CPU, Duration: time.Microsecond,
		Children: []*Node{shared, shared}}
	g := &Graph{Model: "m", BatchSize: 1, Root: root}
	if err := g.Finalize(); err == nil {
		t.Fatal("expected error for node reachable twice")
	}
}

func TestFinalizeRejectsNilRoot(t *testing.T) {
	g := &Graph{Model: "m"}
	if err := g.Finalize(); err == nil {
		t.Fatal("expected error for nil root")
	}
}

func TestValidationCatchesBadNodes(t *testing.T) {
	cases := []struct {
		name string
		node *Node
	}{
		{"no device", &Node{Op: "x", Duration: time.Microsecond}},
		{"negative duration", &Node{Op: "x", Device: CPU, Duration: -1}},
		{"gpu without occupancy", &Node{Op: "x", Device: GPU, Duration: 1}},
		{"gpu occupancy >1", &Node{Op: "x", Device: GPU, Duration: 1, Occupancy: 1.5}},
		{"cpu with occupancy", &Node{Op: "x", Device: CPU, Duration: 1, Occupancy: 0.5}},
		{"cpu async", &Node{Op: "x", Device: CPU, Duration: 1, Async: true}},
	}
	for _, tc := range cases {
		g := &Graph{Model: "m", BatchSize: 1, Root: tc.node}
		if err := g.Finalize(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestStats(t *testing.T) {
	gpuHead, gpuTail := chain(3, GPU, 10*time.Microsecond)
	cpuHead, _ := chain(2, CPU, 5*time.Microsecond)
	gpuHead.Async = true
	gpuTail.Children = nil
	root := &Node{Op: "root", Device: CPU, Duration: time.Microsecond,
		Children: []*Node{gpuHead, cpuHead}}
	g := &Graph{Model: "m", BatchSize: 1, Root: root}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Nodes != 6 || s.GPUNodes != 3 || s.CPUNodes != 3 {
		t.Fatalf("stats %+v", s)
	}
	if s.GPUWork != 30*time.Microsecond {
		t.Fatalf("GPU work %v", s.GPUWork)
	}
	if s.CPUWork != 11*time.Microsecond {
		t.Fatalf("CPU work %v", s.CPUWork)
	}
	if s.MaxDuration != 10*time.Microsecond {
		t.Fatalf("max duration %v", s.MaxDuration)
	}
}

func TestGPUDurationsSorted(t *testing.T) {
	n3 := &Node{Op: "c", Device: GPU, Duration: 3 * time.Microsecond, Occupancy: 1}
	n1 := &Node{Op: "a", Device: GPU, Duration: 1 * time.Microsecond, Occupancy: 1, Children: []*Node{n3}}
	n2 := &Node{Op: "b", Device: GPU, Duration: 2 * time.Microsecond, Occupancy: 1, Children: []*Node{n1}}
	g := &Graph{Model: "m", BatchSize: 1, Root: n2}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	durs := g.GPUDurations()
	for i := 1; i < len(durs); i++ {
		if durs[i] < durs[i-1] {
			t.Fatalf("durations not sorted: %v", durs)
		}
	}
}

// Property: Finalize over a random chain assigns dense IDs 0..n-1 and Stats
// node counts always add up.
func TestPropertyChainFinalize(t *testing.T) {
	prop := func(nRaw uint8, gpuMask uint8) bool {
		n := int(nRaw)%40 + 1
		var head, tail *Node
		for i := 0; i < n; i++ {
			dev := CPU
			occ := 0.0
			if (gpuMask>>(i%8))&1 == 1 {
				dev = GPU
				occ = 0.5
			}
			node := &Node{Op: "x", Device: dev, Duration: time.Microsecond, Occupancy: occ}
			if head == nil {
				head, tail = node, node
			} else {
				tail.Children = append(tail.Children, node)
				tail = node
			}
		}
		g := &Graph{Model: "m", BatchSize: 1, Root: head}
		if err := g.Finalize(); err != nil {
			return false
		}
		for i, node := range g.Nodes {
			if node.ID != i {
				return false
			}
		}
		s := g.Stats()
		return s.Nodes == n && s.GPUNodes+s.CPUNodes == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
