// Command olympian-sim reproduces the paper's evaluation artifacts.
//
// Usage:
//
//	olympian-sim -list                 # list experiment ids
//	olympian-sim fig11 fig17          # run specific experiments
//	olympian-sim -all                  # run everything (full size)
//	olympian-sim -quick fig16          # shrunken workloads for smoke runs
//	olympian-sim -seed 7 fig3          # different randomness
//	olympian-sim cluster               # multi-GPU fleet: scaling + failover
//	olympian-sim overload              # overload control: admission, shedding, hedging
//	olympian-sim sharded               # sharded core: engine identity + 64-device sweep
//	olympian-sim -trace-out t.json overload  # lifecycle trace for ui.perfetto.dev
//	olympian-sim -timeline-out tl.json overload  # virtual-time telemetry + SLO alerts
//
// Each experiment prints the same rows the paper's table or figure reports,
// plus derived notes and machine-readable metrics.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"olympian/internal/experiments"
	"olympian/internal/obs"
	"olympian/internal/telemetry"
	"olympian/internal/trace"
)

// writeCSV emits the report's table with an experiment-id column prefix.
func writeCSV(w io.Writer, rep *experiments.Report) error {
	cw := csv.NewWriter(w)
	header := append([]string{"experiment"}, rep.Headers...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rep.Rows {
		if err := cw.Write(append([]string{rep.ID}, row...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "olympian-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("olympian-sim", flag.ContinueOnError)
	var (
		list        = fs.Bool("list", false, "list experiment ids and exit")
		all         = fs.Bool("all", false, "run every experiment")
		quick       = fs.Bool("quick", false, "shrink workloads for a fast smoke run")
		seed        = fs.Int64("seed", 1, "simulation seed")
		csv         = fs.Bool("csv", false, "emit rows as CSV instead of an aligned table")
		scenFile    = fs.String("scenario", "", "run a custom scenario JSON file instead of a paper experiment")
		traceOut    = fs.String("trace-out", "", "write a Perfetto/Chrome lifecycle trace of the runs to this file")
		traceGPU    = fs.Bool("trace-gpu", false, "include per-kernel GPU spans in the trace (hundreds of MB for full experiments)")
		timelineOut = fs.String("timeline-out", "", "write the virtual-time telemetry timeline (series, burn rates, alert log) as JSON to this file; implies recording")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenFile != "" {
		return runScenario(os.Stdout, *scenFile)
	}
	registry := experiments.Registry()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}
	ids := fs.Args()
	if *all {
		ids = nil
		for _, e := range registry {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no experiments given; use -list to see ids or -all to run everything")
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	if *traceOut != "" || *timelineOut != "" {
		opts.Obs = obs.NewRecorder()
		if !*traceGPU {
			opts.Obs.MuteLayer(obs.LayerGPU)
		}
	}
	if *timelineOut != "" {
		opts.Telemetry = &telemetry.Config{
			SLOs:  telemetry.DefaultServingSLOs(),
			Rules: telemetry.DefaultRules(),
		}
	}
	var timeline *telemetry.Timeline
	for _, id := range ids {
		e, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *csv {
			if err := writeCSV(os.Stdout, rep); err != nil {
				return err
			}
		} else {
			rep.Fprint(os.Stdout)
			fmt.Printf("(completed in %.1fs)\n\n", time.Since(start).Seconds())
		}
		if rep.Timeline != nil {
			timeline = rep.Timeline
		}
	}
	if *timelineOut != "" {
		if timeline == nil {
			return fmt.Errorf("-timeline-out: no selected experiment produced a telemetry timeline (try overload)")
		}
		if err := writeTimeline(*timelineOut, timeline); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote timeline:", *timelineOut)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, opts.Obs, timeline); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote trace:", *traceOut)
	}
	return nil
}

// writeTrace renders the recorder's lifecycle trace to path, overlaying the
// telemetry timeline's burn-rate counter tracks when one was produced. Open
// it with ui.perfetto.dev or chrome://tracing.
func writeTrace(path string, rec *obs.Recorder, tl *telemetry.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteLifecycleTimeline(f, rec.Trace(), tl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTimeline dumps the merged telemetry timeline as deterministic JSON.
func writeTimeline(path string, tl *telemetry.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
