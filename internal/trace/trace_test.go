package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"olympian/internal/core"
	"olympian/internal/sim"
)

func TestWriteChromeTrace(t *testing.T) {
	records := []core.QuantumRecord{
		{Client: 0, JobID: 1, Start: 0, End: sim.Time(1200 * time.Microsecond), GPUDuration: time.Millisecond, ActiveJobs: 2},
		{Client: 1, JobID: 2, Start: sim.Time(1200 * time.Microsecond), End: sim.Time(2500 * time.Microsecond), GPUDuration: 1100 * time.Microsecond, ActiveJobs: 2, OverflowKernels: 1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, records, map[int]string{0: "inception"}); err != nil {
		t.Fatal(err)
	}
	type traceEvent struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
		Args struct {
			Name            string `json:"name"`
			OverflowKernels int    `json:"overflowKernels"`
		} `json:"args"`
	}
	var decoded struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	var slices, meta []traceEvent
	for _, ev := range decoded.TraceEvents {
		switch ev.Ph {
		case "X":
			slices = append(slices, ev)
		case "M":
			meta = append(meta, ev)
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if len(slices) != 2 {
		t.Fatalf("%d slice events", len(slices))
	}
	ev0 := slices[0]
	if ev0.Name != "inception" || ev0.Ts != 0 || ev0.Dur != 1200 {
		t.Fatalf("event 0 %+v", ev0)
	}
	ev1 := slices[1]
	if ev1.Name != "client-1" || ev1.Tid != 1 || ev1.Args.OverflowKernels != 1 {
		t.Fatalf("event 1 %+v", ev1)
	}
	// Metadata events label the process and each client track.
	labels := map[string]string{}
	for _, ev := range meta {
		labels[fmt.Sprintf("%s/%d", ev.Name, ev.Tid)] = ev.Args.Name
	}
	if labels["process_name/0"] != "olympian" {
		t.Fatalf("missing process_name metadata: %v", labels)
	}
	if labels["thread_name/0"] != "inception" || labels["thread_name/1"] != "client-1" {
		t.Fatalf("missing thread_name metadata: %v", labels)
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Fatalf("display unit %q", decoded.DisplayTimeUnit)
	}
}

// TestWriteChromeTraceEmpty is the regression test for the nil-slice bug:
// with no records, traceEvents must still be a JSON array (a nil Go slice
// marshals to null, which Perfetto rejects).
func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.TraceEvents) == 0 || decoded.TraceEvents[0] != '[' {
		t.Fatalf("traceEvents is not a JSON array: %s", decoded.TraceEvents)
	}
	var events []json.RawMessage
	if err := json.Unmarshal(decoded.TraceEvents, &events); err != nil {
		t.Fatalf("traceEvents does not decode as an array: %v", err)
	}
}

// TestWriteChromeTraceGolden pins the per-quantum trace byte-for-byte. The
// fixture's first label needs HTML-safe escaping, the second a control and
// a line-separator escape, and fractional and sub-microsecond timestamps
// exercise the float rendering. Refresh with:
// go test ./internal/trace -run Golden -update
func TestWriteChromeTraceGolden(t *testing.T) {
	us := func(n float64) sim.Time { return sim.Time(n * float64(time.Microsecond)) }
	records := []core.QuantumRecord{
		{Client: 0, JobID: 7, Start: 0, End: us(1200), GPUDuration: time.Millisecond, ActiveJobs: 3},
		{Client: 2, JobID: 8, Start: us(1200), End: us(2500.125), GPUDuration: 1100 * time.Microsecond, ActiveJobs: 3, OverflowKernels: 2},
		{Client: 5, JobID: 9, Start: us(2500.125), End: 2500126, GPUDuration: 1, ActiveJobs: 1},
		{Client: 0, JobID: 7, Start: 2500126, End: sim.Time(3 * time.Second), GPUDuration: 2 * time.Second, ActiveJobs: 2, OverflowKernels: 1},
	}
	labels := map[int]string{0: "a<b>&\"c", 2: "tab\tsep\u2028end"}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, records, labels); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome.golden.json", buf.Bytes())
}
