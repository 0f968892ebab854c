// Command bench is the repository benchmark. It runs one simulator workload
// for a fixed wall-clock budget, checks the modeled outputs, and prints every
// metric that BENCHMARK.json names, with its unit.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload fleet-micro --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload llm-overload --trace 1 --out .bench_build/trace
//	bash bench/run.sh --compare A.json B.json
//
// Without --workload it runs every workload, one process after another. The
// last line of a workload's output is its result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
// with tracing off; with --trace 1 they are its per_layer list, taken from a
// run under the CPU and allocation profilers. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// options are the command-line settings of one benchmark process.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	spec     string
	// scale sizes the workloads: 1 is the benchmark size, the only size
	// with golden outputs; tests run smaller.
	scale float64
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names, units and bounds. The file is the one place they are defined.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// metricValue and result are the contract of the last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// Plain runs sample no allocations; the allocation pass of a traced run
	// turns exact profiling on for itself.
	runtime.MemProfileRate = 0

	o := options{scale: 1}
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload, each in its own process")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 15, "wall-clock seconds of measured reps")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "trace"), "directory for the traced run's <workload>.spans.json")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition holding the metric names, units and bounds")
	compare := flag.Bool("compare", false, "compare two result files: --compare A.json B.json")
	flag.Parse()

	spec, err := readSpec(o.spec)
	if err != nil {
		fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fail(errors.New("--compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fail(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}
	if o.workload == "" {
		if err := runAll(o, spec); err != nil {
			fail(err)
		}
		return
	}
	w, ok := workloadNamed(o.workload)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	res, det, err := runWorkload(w, o, spec)
	if err != nil {
		fail(err)
	}
	if err := printJSON(map[string]detail{"detail": det}); err != nil {
		fail(err)
	}
	if err := printJSON(res); err != nil {
		fail(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a process of its own, one at a time, so
// each process's peak RSS belongs to one workload.
func runAll(o options, spec benchSpec) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		cmd := exec.Command(self, "--workload", w.Name,
			"--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds),
			"--trace", strconv.Itoa(o.trace),
			"--out", o.out, "--spec", o.spec)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return nil
}

func printJSON(v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", buf)
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
