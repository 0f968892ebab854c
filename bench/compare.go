package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// runRecord is one benchmark process's output as a result file holds it: the
// detail line and the result line after it.
type runRecord struct {
	detail detail
	result result
}

// readResults parses a result file: the concatenated standard output of any
// number of plain (--trace 0) runs. Traced runs carry no end-to-end metrics
// and are skipped. Runs are grouped by workload.
func readResults(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]runRecord{}
	var pending *detail
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		var keys map[string]json.RawMessage
		if json.Unmarshal(sc.Bytes(), &keys) != nil {
			continue // not one of the benchmark's JSON lines
		}
		if raw, ok := keys["detail"]; ok {
			pending = new(detail)
			if err := json.Unmarshal(raw, pending); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
			continue
		}
		if _, ok := keys["metrics"]; !ok {
			continue
		}
		if pending == nil {
			return nil, fmt.Errorf("%s:%d: result line without a detail line before it", path, line)
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if pending.Trace == 0 {
			runs[pending.Workload] = append(runs[pending.Workload], runRecord{*pending, res})
		}
		pending = nil
	}
	return runs, sc.Err()
}

// samplesOf returns the values of one metric a side has: one per run, or
// with a single run its per-rep samples where it has them.
func samplesOf(runs []runRecord, name string) []float64 {
	if len(runs) == 1 && len(runs[0].detail.Samples[name]) > 1 {
		return runs[0].detail.Samples[name]
	}
	var xs []float64
	for _, r := range runs {
		if m, ok := r.result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the default "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the quartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

// verdict compares side b against side a for one metric. It is unresolved
// when either side's quartile spread exceeds the metric's bound; otherwise
// worse or improved when the medians differ by more than the bound in that
// direction, and unchanged within it.
func verdict(m metricSpec, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	delta := ratio(mb-ma, math.Abs(ma))
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return "unresolved", delta
	}
	gain := delta
	if m.Better == "lower" {
		gain = -delta
	}
	switch {
	case gain < -m.Bound:
		return "worse", delta
	case gain > m.Bound:
		return "improved", delta
	}
	return "unchanged", delta
}

// compareFiles prints one row per workload and end-to-end metric comparing
// result file b against a, and reports whether any metric got worse.
func compareFiles(w io.Writer, spec benchSpec, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tdelta\tA spread\tB spread\tbound\tverdict")
	worse := false
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\t\t\tmissing (runs: A %d, B %d)\n", wl.Name, len(ra), len(rb))
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := samplesOf(ra, m.Name), samplesOf(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\tmissing\n", wl.Name, m.Name)
				continue
			}
			v, delta := verdict(m, xa, xb)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.2f%%\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, median(xa), m.Unit, median(xb), m.Unit, 100*delta,
				100*spread(xa), 100*spread(xb), 100*m.Bound, v)
		}
	}
	return worse, tw.Flush()
}
