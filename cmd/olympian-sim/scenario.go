package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"olympian"
	"olympian/cmd/internal/spec"
)

// scenario is a JSON description of a custom simulation, run with
// `olympian-sim -scenario file.json`. See examples/scenarios/. Besides its
// own fields it takes every spec.Simulation field: scheduler (tf-serving |
// olympian | cpu-timer | kernel-slicing), policy (fair | weighted |
// priority | lottery | deficit-rr | edf), quantumUs, seed, and client
// groups capped at spec.MaxClients clients and spec.MaxJobs jobs.
type scenario struct {
	// Name labels the output.
	Name string `json:"name"`
	// GPU: gtx-1080ti | titan-x.
	GPU string `json:"gpu"`
	// GPUs > 1 runs the multi-device extension, on at most maxGPUs.
	GPUs int `json:"gpus"`
	spec.Simulation
}

// maxGPUs bounds a scenario's device count at the largest fleet the repo
// runs, the sharded experiment's 64-device sweep.
const maxGPUs = 64

// runScenario loads and executes a scenario file.
func runScenario(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	var sc scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return fmt.Errorf("scenario %s: %w", path, err)
	}
	cfg, clients, err := sc.Build()
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	switch sc.GPU {
	case "", "gtx-1080ti":
		cfg.GPU = olympian.GTX1080Ti
	case "titan-x":
		cfg.GPU = olympian.TitanX
	default:
		return fmt.Errorf("scenario: unknown gpu %q", sc.GPU)
	}
	if sc.GPUs > maxGPUs {
		return fmt.Errorf("scenario: gpus %d above %d", sc.GPUs, maxGPUs)
	}
	cfg.GPUs = sc.GPUs

	name := sc.Name
	if name == "" {
		name = path
	}
	res, err := olympian.Simulate(cfg, clients)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== scenario: %s ==\n", name)
	if sc.GPUs > 1 {
		fmt.Fprintf(w, "gpus: %d, placement %v\n", sc.GPUs, res.GPUClients())
	}
	fmt.Fprintln(w, "client  model          finish")
	for i, f := range res.FinishTimes() {
		fmt.Fprintf(w, "%6d  %-13s  %.2fs\n", i, clients[i].Model, f.Seconds())
	}
	fmt.Fprintf(w, "spread %.3fx, utilization %.1f%%, switches %d, mean quantum %v\n",
		res.FinishSpread(), res.Utilization()*100, res.TokenSwitches(),
		res.MeanQuantum().Round(time.Microsecond))
	return nil
}
