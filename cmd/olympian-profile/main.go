// Command olympian-profile runs the offline profiler: the operator-facing
// step that produces cost models and picks the quantum Q.
//
// Usage:
//
//	olympian-profile -model inception-v4 -batch 100
//	olympian-profile -model resnet-152 -batch 100 -gpu titan-x
//	olympian-profile -model inception-v4 -batch 100 -curve -tolerance 0.025
//	olympian-profile -all -batch 0      # profile the Table 2 configurations
//
// It prints C_j (total node cost), D_j (solo GPU duration), the cost
// accumulation rate, the threshold T_j for a quantum, and optionally the
// Overhead-Q curve with the Q chosen for an overhead tolerance.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"olympian/cmd/internal/spec"
	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/profiler"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "olympian-profile:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("olympian-profile", flag.ContinueOnError)
	var (
		modelName = fs.String("model", "", "model to profile (see -models)")
		batch     = fs.Int("batch", 100, fmt.Sprintf("batch size, at most %d (0 = the paper's Table 2 size)", spec.MaxBatch))
		gpuName   = fs.String("gpu", "gtx-1080ti", "GPU platform: gtx-1080ti or titan-x")
		quantum   = fs.Duration("quantum", 1200*time.Microsecond, "quantum Q for the threshold")
		curve     = fs.Bool("curve", false, "also trace the Overhead-Q curve")
		tolerance = fs.Float64("tolerance", 0.025, "overhead tolerance for choosing Q (with -curve)")
		allModels = fs.Bool("all", false, "profile every model in the zoo")
		listOnly  = fs.Bool("models", false, "list model names and exit")
		seed      = fs.Int64("seed", 1, "simulation seed")
		saveDir   = fs.String("save", "", "write profiles under this directory (<dir>/<gpu>/<model>-b<batch>.json)")
		fromDir   = fs.String("from", "", "load profiles from this directory instead of re-profiling")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listOnly {
		for _, e := range model.Table2() {
			fmt.Printf("%-13s (paper batch %d)\n", e.Model, e.Batch)
		}
		return nil
	}
	if *batch > spec.MaxBatch {
		return fmt.Errorf("-batch %d above the cap of %d", *batch, spec.MaxBatch)
	}
	platform, err := lookupGPU(*gpuName)
	if err != nil {
		return err
	}
	var names []string
	if *allModels {
		names = model.Names()
	} else if *modelName != "" {
		names = []string{*modelName}
	} else {
		return fmt.Errorf("give -model <name> or -all (see -models for names)")
	}

	fmt.Printf("platform %s, quantum Q=%v\n", platform.Name, *quantum)
	fmt.Println("model          batch  C_j        D_j        rate   T_j        solo runtime")
	var curves []*profiler.OverheadCurve
	for _, name := range names {
		b := *batch
		if b == 0 {
			for _, e := range model.Table2() {
				if e.Model == name {
					b = e.Batch
				}
			}
		}
		g, err := model.Build(name, b)
		if err != nil {
			return err
		}
		var prof *profiler.Result
		if *fromDir != "" {
			loaded, gpuOfProfile, lerr := profiler.ReadFile(profiler.StorePath(*fromDir, platform.Name, name, b))
			if lerr != nil {
				return lerr
			}
			if gpuOfProfile != platform.Name {
				return fmt.Errorf("profile for %s/%d was taken on %s, not %s", name, b, gpuOfProfile, platform.Name)
			}
			prof = loaded
		} else {
			p, perr := profiler.ProfileSolo(g, profiler.Options{Spec: platform, Seed: *seed})
			if perr != nil {
				return perr
			}
			prof = p
		}
		if *saveDir != "" {
			if err := prof.WriteFile(profiler.StorePath(*saveDir, platform.Name, name, b), platform.Name); err != nil {
				return err
			}
		}
		fmt.Printf("%-13s  %5d  %9.1fms %9.1fms %5.2f  %-9v  %v\n",
			name, b,
			prof.TotalCost.Seconds()*1e3, prof.GPUDuration.Seconds()*1e3,
			prof.Rate(), prof.Threshold(*quantum).Round(time.Microsecond),
			prof.Runtime.Round(time.Millisecond))
		if *curve {
			c, err := profiler.MeasureOverheadCurve(g, prof, nil, profiler.Options{Spec: platform, Seed: *seed})
			if err != nil {
				return err
			}
			curves = append(curves, c)
		}
	}
	if *curve {
		fmt.Println("\noverhead-Q curves:")
		for _, c := range curves {
			fmt.Printf("%-13s", c.Model)
			for _, pt := range c.Points {
				fmt.Printf("  %v=%.1f%%", pt.Q, pt.Overhead*100)
			}
			fmt.Println()
		}
		q := profiler.ChooseQForSet(curves, *tolerance)
		fmt.Printf("Q chosen for %.1f%% tolerance: %v\n", *tolerance*100, q.Round(10*time.Microsecond))
	}
	return nil
}

func lookupGPU(name string) (gpu.Spec, error) {
	switch name {
	case "gtx-1080ti":
		return gpu.GTX1080Ti, nil
	case "titan-x":
		return gpu.TitanX, nil
	default:
		return gpu.Spec{}, fmt.Errorf("unknown GPU %q (gtx-1080ti, titan-x)", name)
	}
}
