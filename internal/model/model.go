// Package model is the model zoo: synthetic dataflow graphs standing in for
// the seven DNNs of the paper's evaluation (Inception-v4, GoogLeNet,
// AlexNet, VGG, ResNet-50/101/152).
//
// The generator is calibrated against Table 2 of the paper: at the paper's
// batch size each model produces exactly the table's node count and GPU-node
// count, and a solo run approximates the table's runtime. Graphs are built
// from two parts, mirroring how TF-Serving graphs grow with batch size:
//
//   - a per-image preprocessing chain (decode/resize/crop/normalize …)
//     replicated once per image in the batch — this is why Table 2 node
//     counts scale with batch size; and
//   - an architecture body (stages of branched conv blocks) whose node
//     count is fixed but whose kernel durations scale with batch size.
//
// Per-node durations follow the paper's Figure 4 shape: the large majority
// of nodes run for a few microseconds, with a heavy tail of convolution
// kernels up to a few milliseconds.
package model

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"olympian/internal/graph"
)

// Canonical model names.
const (
	Inception = "inception-v4"
	GoogLeNet = "googlenet"
	AlexNet   = "alexnet"
	VGG       = "vgg"
	ResNet50  = "resnet-50"
	ResNet101 = "resnet-101"
	ResNet152 = "resnet-152"
	// Micro is a deliberately tiny synthetic model — a couple dozen nodes
	// instead of ~15k — for scale experiments and benchmarks that push
	// millions of requests through a cluster. It is not part of the paper's
	// zoo and is excluded from Names (and thus from Table 2 calibration).
	Micro = "micro"
)

// def holds the per-architecture calibration constants.
type def struct {
	name string

	// Table 2 anchors.
	tableBatch   int
	tableNodes   int
	tableGPU     int
	tableRuntime time.Duration

	// Per-image preprocessing chain composition.
	chainLen int // nodes per image
	chainGPU int // GPU nodes per image

	// Body structure.
	stages   int
	branches int

	// Runtime scaling exponent: runtime(b) = tableRuntime * (b/tableBatch)^alpha.
	alpha float64

	// Device memory model: weights + per-batch workspace.
	weightsBytes   int64
	workspaceBase  int64
	workspacePerIm int64

	// seed decorrelates the duration patterns of different models.
	seed int64
}

var defs = map[string]def{
	Inception: {
		name: Inception, tableBatch: 150, tableNodes: 15599, tableGPU: 13309,
		tableRuntime: 810 * time.Millisecond, chainLen: 80, chainGPU: 68,
		stages: 22, branches: 4, alpha: 1.3,
		weightsBytes: 163 << 20, workspaceBase: 20 << 20, workspacePerIm: 600 << 10,
		seed: 101,
	},
	GoogLeNet: {
		name: GoogLeNet, tableBatch: 200, tableNodes: 18980, tableGPU: 15948,
		tableRuntime: 1090 * time.Millisecond, chainLen: 80, chainGPU: 68,
		stages: 12, branches: 4, alpha: 1.3,
		weightsBytes: 27 << 20, workspaceBase: 20 << 20, workspacePerIm: 600 << 10,
		seed: 102,
	},
	AlexNet: {
		name: AlexNet, tableBatch: 256, tableNodes: 23774, tableGPU: 19902,
		tableRuntime: 1130 * time.Millisecond, chainLen: 80, chainGPU: 68,
		stages: 8, branches: 1, alpha: 1.3,
		weightsBytes: 233 << 20, workspaceBase: 20 << 20, workspacePerIm: 600 << 10,
		seed: 103,
	},
	VGG: {
		name: VGG, tableBatch: 120, tableNodes: 11297, tableGPU: 9965,
		tableRuntime: 830 * time.Millisecond, chainLen: 80, chainGPU: 72,
		stages: 13, branches: 1, alpha: 1.3,
		weightsBytes: 528 << 20, workspaceBase: 20 << 20, workspacePerIm: 600 << 10,
		seed: 104,
	},
	ResNet50: {
		name: ResNet50, tableBatch: 144, tableNodes: 14472, tableGPU: 12280,
		tableRuntime: 790 * time.Millisecond, chainLen: 80, chainGPU: 68,
		stages: 16, branches: 2, alpha: 1.3,
		weightsBytes: 98 << 20, workspaceBase: 20 << 20, workspacePerIm: 600 << 10,
		seed: 105,
	},
	ResNet101: {
		name: ResNet101, tableBatch: 128, tableNodes: 14034, tableGPU: 12082,
		tableRuntime: 850 * time.Millisecond, chainLen: 80, chainGPU: 68,
		stages: 33, branches: 2, alpha: 1.3,
		weightsBytes: 170 << 20, workspaceBase: 20 << 20, workspacePerIm: 600 << 10,
		seed: 106,
	},
	ResNet152: {
		name: ResNet152, tableBatch: 100, tableNodes: 12495, tableGPU: 10963,
		tableRuntime: 800 * time.Millisecond, chainLen: 80, chainGPU: 68,
		stages: 50, branches: 2, alpha: 1.3,
		weightsBytes: 230 << 20, workspaceBase: 20 << 20, workspacePerIm: 600 << 10,
		seed: 107,
	},
	Micro: {
		name: Micro, tableBatch: 8, tableNodes: 26, tableGPU: 14,
		tableRuntime: 1200 * time.Microsecond, chainLen: 2, chainGPU: 1,
		stages: 2, branches: 1, alpha: 1.0,
		weightsBytes: 1 << 20, workspaceBase: 1 << 20, workspacePerIm: 64 << 10,
		seed: 108,
	},
}

// Names returns the model names in the paper's Table 2 order.
func Names() []string {
	return []string{Inception, GoogLeNet, AlexNet, VGG, ResNet50, ResNet101, ResNet152}
}

// Table2Entry is one row of the paper's Table 2.
type Table2Entry struct {
	Model    string
	Batch    int
	Nodes    int
	GPUNodes int
	Runtime  time.Duration
}

// Table2 returns the paper's Table 2 anchor values.
func Table2() []Table2Entry {
	out := make([]Table2Entry, 0, len(defs))
	for _, name := range Names() {
		d := defs[name]
		out = append(out, Table2Entry{
			Model: d.name, Batch: d.tableBatch, Nodes: d.tableNodes,
			GPUNodes: d.tableGPU, Runtime: d.tableRuntime,
		})
	}
	return out
}

// TargetRuntime returns the calibrated solo runtime for the model at the
// given batch size (the power-law fit anchored at Table 2).
func TargetRuntime(name string, batch int) (time.Duration, error) {
	d, ok := defs[name]
	if !ok {
		return 0, fmt.Errorf("model: unknown model %q", name)
	}
	return d.runtime(batch), nil
}

func (d def) runtime(batch int) time.Duration {
	scale := math.Pow(float64(batch)/float64(d.tableBatch), d.alpha)
	return time.Duration(float64(d.tableRuntime) * scale)
}

// MemoryBytes returns the device memory one serving client of the model
// needs (weights plus batch workspace).
func MemoryBytes(name string, batch int) (int64, error) {
	d, ok := defs[name]
	if !ok {
		return 0, fmt.Errorf("model: unknown model %q", name)
	}
	return d.weightsBytes + d.workspaceBase + int64(batch)*d.workspacePerIm, nil
}

// bodyOccupancy models SM saturation: the paper's batch sizes (100+) leave
// no room for spatial multiplexing, while small batches underfill the GPU.
func bodyOccupancy(batch int) float64 {
	occ := 0.12 + float64(batch)/110
	if occ > 1 {
		occ = 1
	}
	if occ < 0.12 {
		occ = 0.12
	}
	return occ
}

// BuildUncached constructs the model's dataflow graph for the given batch
// size, bypassing the package cache. Graph construction is deterministic:
// the same (name, batch) always yields an identical graph. Most callers
// want Build, which memoizes; BuildUncached exists for benchmarks that
// measure construction cost and for callers that intend to mutate the graph.
func BuildUncached(name string, batch int) (*graph.Graph, error) {
	d, ok := defs[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown model %q", name)
	}
	if batch < 1 {
		return nil, fmt.Errorf("model %s: batch size %d < 1", name, batch)
	}

	bodyNodes := d.tableNodes - d.tableBatch*d.chainLen
	bodyGPU := d.tableGPU - d.tableBatch*d.chainGPU
	bodyCPU := bodyNodes - bodyGPU
	if bodyGPU <= d.stages*d.branches || bodyCPU <= d.stages {
		return nil, fmt.Errorf("model %s: calibration broken (bodyGPU=%d bodyCPU=%d)", name, bodyGPU, bodyCPU)
	}

	rng := rand.New(rand.NewSource(d.seed))
	occ := bodyOccupancy(batch)

	// Root: the batching node that assembles client inputs (paper §2:
	// Tensorflow adds nodes that decode inputs into batch matrices).
	root := &graph.Node{Op: "batch-assemble", Device: graph.CPU, Duration: 10 * time.Microsecond}
	g := &graph.Graph{Model: name, BatchSize: batch, Root: root}

	// Per-image preprocessing chains hang off the root; their first node is
	// async so each image is handled by its own thread, as in TF-Serving.
	for img := 0; img < batch; img++ {
		root.Children = append(root.Children, buildChain(d, rng))
	}

	// Architecture body: a spine of stage nodes; each stage carries
	// `branches` chains of GPU kernels plus auxiliary CPU nodes.
	budget := d.bodyGPUBudget(batch)
	durs, ops := bodyDurations(rng, bodyGPU, budget)

	spine := &graph.Node{Op: "stage", Device: graph.CPU, Duration: 6 * time.Microsecond}
	root.Children = append(root.Children, spine)
	cur := spine
	// The root and the spine nodes all count against the body CPU budget.
	cpuLeft := bodyCPU - d.stages - 1
	gpuIdx := 0
	for s := 0; s < d.stages; s++ {
		gpuThis := bodyGPU / d.stages
		if s < bodyGPU%d.stages {
			gpuThis++
		}
		cpuThis := cpuLeft / d.stages
		if s < cpuLeft%d.stages {
			cpuThis++
		}
		// Branch chains of GPU kernels.
		for br := 0; br < d.branches; br++ {
			n := gpuThis / d.branches
			if br < gpuThis%d.branches {
				n++
			}
			if n == 0 {
				continue
			}
			head := gpuChain(durs[gpuIdx:gpuIdx+n], ops[gpuIdx:gpuIdx+n], occ)
			gpuIdx += n
			cur.Children = append(cur.Children, head)
		}
		// Auxiliary CPU nodes (consts, identities, shape ops).
		for i := 0; i < cpuThis; i++ {
			cur.Children = append(cur.Children, &graph.Node{
				Op: "aux-cpu", Device: graph.CPU,
				Duration: time.Duration(1+rng.Intn(4)) * time.Microsecond,
			})
		}
		if s < d.stages-1 {
			next := &graph.Node{Op: "stage", Device: graph.CPU, Duration: 6 * time.Microsecond}
			cur.Children = append(cur.Children, next)
			cur = next
		}
	}
	if gpuIdx != bodyGPU {
		return nil, fmt.Errorf("model %s: placed %d body GPU nodes, want %d", name, gpuIdx, bodyGPU)
	}

	if err := g.Finalize(); err != nil {
		return nil, err
	}
	return g, nil
}

// buildChain builds one per-image preprocessing chain: exactly chainLen
// nodes of which exactly chainGPU launch tiny kernels. The head node is a
// GPU node marked async (the processing loop hands each image to its own
// thread, as TF-Serving does).
func buildChain(d def, rng *rand.Rand) *graph.Node {
	nCPU := d.chainLen - d.chainGPU
	isCPU := make([]bool, d.chainLen)
	if nCPU > 0 {
		stride := float64(d.chainLen) / float64(nCPU)
		for j := 0; j < nCPU; j++ {
			pos := 1 + int(float64(j)*stride)
			if pos >= d.chainLen {
				pos = d.chainLen - 1
			}
			for isCPU[pos] {
				pos++
				if pos >= d.chainLen {
					pos = 1
				}
			}
			isCPU[pos] = true
		}
	}
	var head, tail *graph.Node
	for i := 0; i < d.chainLen; i++ {
		var n *graph.Node
		if isCPU[i] {
			n = &graph.Node{
				Op: "img-cpu", Device: graph.CPU,
				Duration: time.Duration(3+rng.Intn(5)) * time.Microsecond,
			}
		} else {
			n = &graph.Node{
				Op: "img-gpu", Device: graph.GPU,
				Duration:  chainKernelDuration(rng),
				Occupancy: 0.03,
			}
		}
		if head == nil {
			head, tail = n, n
		} else {
			tail.Children = append(tail.Children, n)
			tail = n
		}
	}
	head.Async = true
	return head
}

// chainKernelDuration draws a tiny preprocessing kernel duration: mostly
// 1-6 us with occasional 10-30 us resize kernels.
func chainKernelDuration(rng *rand.Rand) time.Duration {
	if rng.Float64() < 0.06 {
		return time.Duration(10+rng.Intn(21)) * time.Microsecond
	}
	return time.Duration(1+rng.Intn(6)) * time.Microsecond
}

// bodyGPUBudget returns the total GPU kernel time to distribute over the
// body, i.e. the runtime target minus the preprocessing-chain share and a
// CPU/launch slack.
func (d def) bodyGPUBudget(batch int) time.Duration {
	rt := d.runtime(batch)
	// Chain kernels: batch*chainGPU kernels at ~3.5us plus ~4us launch.
	chain := time.Duration(batch*d.chainGPU) * 7500 * time.Nanosecond
	// Launch latency for body kernels and CPU slack.
	bodyGPU := d.tableGPU - d.tableBatch*d.chainGPU
	slack := time.Duration(bodyGPU)*4*time.Microsecond + 10*time.Millisecond
	budget := rt - chain - slack
	if budget < time.Duration(bodyGPU)*2*time.Microsecond {
		budget = time.Duration(bodyGPU) * 2 * time.Microsecond
	}
	return budget
}

// bodyDurations draws n kernel durations matching the Figure 4 shape —
// ~40% tiny elementwise kernels, ~45% small convolutions, ~15% large
// convolutions — rescaled so the non-tiny mass sums to the budget. The
// second return value carries each kernel's op class, which the profiler's
// linear cost models key on.
func bodyDurations(rng *rand.Rand, n int, budget time.Duration) ([]time.Duration, []string) {
	durs := make([]time.Duration, n)
	ops := make([]string, n)
	var scalableSum float64
	scalable := make([]bool, n)
	for i := range durs {
		switch r := rng.Float64(); {
		case r < 0.40: // elementwise add/relu/bias: stays tiny at any batch
			durs[i] = time.Duration(3+rng.Intn(15)) * time.Microsecond
			ops[i] = "elemwise"
		case r < 0.85: // small conv kernels
			durs[i] = time.Duration(50+rng.Intn(350)) * time.Microsecond
			scalable[i] = true
			ops[i] = "conv-small"
		default: // large conv kernels
			durs[i] = time.Duration(800+rng.Intn(1700)) * time.Microsecond
			scalable[i] = true
			ops[i] = "conv-large"
		}
		if scalable[i] {
			scalableSum += float64(durs[i])
		}
	}
	var tinySum time.Duration
	for i := range durs {
		if !scalable[i] {
			tinySum += durs[i]
		}
	}
	remaining := float64(budget - tinySum)
	if remaining < 0 {
		remaining = float64(budget) * 0.5
	}
	k := remaining / scalableSum
	for i := range durs {
		if scalable[i] {
			durs[i] = time.Duration(float64(durs[i]) * k)
			if durs[i] < 10*time.Microsecond {
				durs[i] = 10 * time.Microsecond
			}
		}
	}
	// Runtimes split very large convolutions into several kernels; cap any
	// single kernel and push the excess back onto the uncapped scalable
	// kernels so the budget is preserved.
	const maxKernel = 2500 * time.Microsecond
	var excess, uncappedSum time.Duration
	for i := range durs {
		if !scalable[i] {
			continue
		}
		if durs[i] > maxKernel {
			excess += durs[i] - maxKernel
			durs[i] = maxKernel
		} else {
			uncappedSum += durs[i]
		}
	}
	if excess > 0 && uncappedSum > 0 {
		grow := 1 + float64(excess)/float64(uncappedSum)
		for i := range durs {
			if scalable[i] && durs[i] < maxKernel {
				d := time.Duration(float64(durs[i]) * grow)
				if d > maxKernel {
					d = maxKernel
				}
				durs[i] = d
			}
		}
	}
	// Shuffle so large kernels are spread across stages.
	rng.Shuffle(n, func(i, j int) {
		durs[i], durs[j] = durs[j], durs[i]
		scalable[i], scalable[j] = scalable[j], scalable[i]
		ops[i], ops[j] = ops[j], ops[i]
	})
	return durs, ops
}

// gpuChain links kernels into a chain whose head is async.
func gpuChain(durs []time.Duration, ops []string, occ float64) *graph.Node {
	var head, tail *graph.Node
	for i, dur := range durs {
		n := &graph.Node{
			Op: ops[i], Device: graph.GPU,
			Duration: dur, Occupancy: occ,
		}
		if head == nil {
			head, tail = n, n
		} else {
			tail.Children = append(tail.Children, n)
			tail = n
		}
	}
	head.Async = true
	return head
}
