package model

import (
	"testing"
	"testing/quick"
	"time"

	"olympian/internal/graph"
)

func TestTable2NodeCountsExact(t *testing.T) {
	for _, e := range Table2() {
		g, err := Build(e.Model, e.Batch)
		if err != nil {
			t.Fatalf("%s: %v", e.Model, err)
		}
		s := g.Stats()
		if s.Nodes != e.Nodes {
			t.Errorf("%s batch %d: %d nodes, want %d", e.Model, e.Batch, s.Nodes, e.Nodes)
		}
		if s.GPUNodes != e.GPUNodes {
			t.Errorf("%s batch %d: %d GPU nodes, want %d", e.Model, e.Batch, s.GPUNodes, e.GPUNodes)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(Inception, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Inception, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Op != y.Op || x.Device != y.Device || x.Duration != y.Duration || x.Occupancy != y.Occupancy {
			t.Fatalf("node %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestNodeCountScalesLinearlyWithBatch(t *testing.T) {
	d := defs[Inception]
	g50, err := Build(Inception, 50)
	if err != nil {
		t.Fatal(err)
	}
	g100, err := Build(Inception, 100)
	if err != nil {
		t.Fatal(err)
	}
	diff := len(g100.Nodes) - len(g50.Nodes)
	if diff != 50*d.chainLen {
		t.Fatalf("node growth per 50 images = %d, want %d", diff, 50*d.chainLen)
	}
}

func TestDurationCDFShape(t *testing.T) {
	// Paper Figure 4 (Inception): the bulk of GPU nodes are tiny, >90%
	// under 1ms, with a millisecond-scale tail.
	g, err := Build(Inception, 100)
	if err != nil {
		t.Fatal(err)
	}
	durs := g.GPUDurations()
	under20us, under1ms := 0, 0
	for _, d := range durs {
		if d < 20*time.Microsecond {
			under20us++
		}
		if d < time.Millisecond {
			under1ms++
		}
	}
	f20 := float64(under20us) / float64(len(durs))
	f1ms := float64(under1ms) / float64(len(durs))
	if f20 < 0.65 {
		t.Errorf("only %.0f%% of nodes under 20us, want >=65%%", f20*100)
	}
	if f1ms < 0.90 {
		t.Errorf("only %.0f%% of nodes under 1ms, want >=90%%", f1ms*100)
	}
	if max := durs[len(durs)-1]; max < 500*time.Microsecond {
		t.Errorf("max node duration %v, want a sub-millisecond-plus tail", max)
	}
}

func TestGPUWorkApproximatesRuntimeBudget(t *testing.T) {
	// The sum of GPU kernel durations plus launch overhead should land in
	// the vicinity of the Table 2 runtime (the executor test validates the
	// end-to-end runtime; here we sanity-check the budget arithmetic).
	for _, e := range Table2() {
		g, err := Build(e.Model, e.Batch)
		if err != nil {
			t.Fatal(err)
		}
		s := g.Stats()
		launch := time.Duration(s.GPUNodes) * 4 * time.Microsecond
		total := s.GPUWork + launch
		lo := time.Duration(float64(e.Runtime) * 0.7)
		hi := time.Duration(float64(e.Runtime) * 1.15)
		if total < lo || total > hi {
			t.Errorf("%s: GPU work+launch %v outside [%v, %v] of runtime %v",
				e.Model, total.Round(time.Millisecond), lo.Round(time.Millisecond),
				hi.Round(time.Millisecond), e.Runtime)
		}
	}
}

func TestRuntimeScalesWithBatch(t *testing.T) {
	r50, err := TargetRuntime(Inception, 50)
	if err != nil {
		t.Fatal(err)
	}
	r100, err := TargetRuntime(Inception, 100)
	if err != nil {
		t.Fatal(err)
	}
	r150, err := TargetRuntime(Inception, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !(r50 < r100 && r100 < r150) {
		t.Fatalf("runtime not monotone: %v %v %v", r50, r100, r150)
	}
	// Calibration anchor used throughout the evaluation: Inception at
	// batch 100 runs for roughly half a second (10 clients x 10 batches
	// then finish near 50s under fair sharing, Figure 11).
	if r100 < 400*time.Millisecond || r100 > 600*time.Millisecond {
		t.Fatalf("Inception batch-100 runtime %v, want ~0.5s", r100)
	}
}

func TestUnknownModelErrors(t *testing.T) {
	if _, err := Build("nonexistent", 10); err == nil {
		t.Fatal("expected error for unknown model")
	}
	if _, err := TargetRuntime("nonexistent", 10); err == nil {
		t.Fatal("expected error for unknown model")
	}
	if _, err := MemoryBytes("nonexistent", 10); err == nil {
		t.Fatal("expected error for unknown model")
	}
	if _, err := Build(Inception, 0); err == nil {
		t.Fatal("expected error for zero batch")
	}
}

func TestMemoryModel(t *testing.T) {
	m100, err := MemoryBytes(Inception, 100)
	if err != nil {
		t.Fatal(err)
	}
	m200, err := MemoryBytes(Inception, 200)
	if err != nil {
		t.Fatal(err)
	}
	if m200 <= m100 {
		t.Fatal("memory should grow with batch size")
	}
	// ~45 concurrent Inception batch-100 clients fit an 11GB device (§4.3).
	clients := int64(11<<30) / m100
	if clients < 35 || clients > 60 {
		t.Fatalf("11GB fits %d clients, want ~45", clients)
	}
}

func TestAsyncNodesAreGPUOnly(t *testing.T) {
	for _, name := range Names() {
		g, err := Build(name, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes {
			if n.Async && n.Device != graph.GPU {
				t.Fatalf("%s: async non-GPU node %d (%s)", name, n.ID, n.Op)
			}
		}
	}
}

func TestOccupancySaturatesAtPaperBatches(t *testing.T) {
	if occ := bodyOccupancy(100); occ != 1.0 {
		t.Fatalf("body occupancy at batch 100 = %.2f, want 1.0 (no spatial multiplexing)", occ)
	}
	if occ := bodyOccupancy(10); occ >= 0.5 {
		t.Fatalf("body occupancy at batch 10 = %.2f, want < 0.5", occ)
	}
}

// Property: every buildable graph passes validation and has exact chain
// arithmetic: nodes = body + batch*chainLen.
func TestPropertyGraphWellFormed(t *testing.T) {
	prop := func(rawBatch uint8, pick uint8) bool {
		batch := int(rawBatch)%256 + 1
		name := Names()[int(pick)%len(Names())]
		d := defs[name]
		g, err := Build(name, batch)
		if err != nil {
			return false
		}
		wantNodes := (d.tableNodes - d.tableBatch*d.chainLen) + batch*d.chainLen
		wantGPU := (d.tableGPU - d.tableBatch*d.chainGPU) + batch*d.chainGPU
		s := g.Stats()
		return s.Nodes == wantNodes && s.GPUNodes == wantGPU
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: target runtime is monotone in batch size for every model, and
// built graphs' GPU work grows with batch size.
func TestPropertyRuntimeMonotone(t *testing.T) {
	prop := func(pick uint8, b1Raw, b2Raw uint8) bool {
		name := Names()[int(pick)%len(Names())]
		b1 := int(b1Raw)%150 + 10
		b2 := b1 + int(b2Raw)%100 + 1
		r1, err := TargetRuntime(name, b1)
		if err != nil {
			return false
		}
		r2, err := TargetRuntime(name, b2)
		if err != nil {
			return false
		}
		if r2 <= r1 {
			return false
		}
		m1, _ := MemoryBytes(name, b1)
		m2, _ := MemoryBytes(name, b2)
		return m2 > m1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGPUWorkGrowsWithBatch(t *testing.T) {
	for _, name := range []string{Inception, VGG} {
		gSmall, err := Build(name, 20)
		if err != nil {
			t.Fatal(err)
		}
		gBig, err := Build(name, 120)
		if err != nil {
			t.Fatal(err)
		}
		if gBig.Stats().GPUWork <= gSmall.Stats().GPUWork {
			t.Fatalf("%s: GPU work did not grow with batch", name)
		}
	}
}

func TestKernelDurationCap(t *testing.T) {
	// The generator caps single kernels at 2.5ms (runtimes split huge
	// convolutions), at every batch size.
	for _, b := range []int{64, 150, 256} {
		g, err := Build(AlexNet, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes {
			if n.Duration > 2500*time.Microsecond {
				t.Fatalf("batch %d: kernel of %v exceeds the cap", b, n.Duration)
			}
		}
	}
}

// BenchmarkModelBuild measures graph construction for the largest model.
// BuildUncached bypasses the memoizing cache so every iteration pays the
// full construction cost.
func BenchmarkModelBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildUncached(AlexNet, 256); err != nil {
			b.Fatal(err)
		}
	}
}
