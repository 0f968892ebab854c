package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"olympian/internal/obs"
	"olympian/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// lifecycleFixture builds a small but representative lifecycle trace by
// hand: one interactive request traced through serving → executor → GPU on
// device 0, a cluster route/failover pair, and an overload limit cut.
func lifecycleFixture(t *testing.T) *obs.Trace {
	t.Helper()
	r := obs.NewRecorder()
	env := sim.NewEnv(1)
	defer env.Shutdown()
	r.Bind(env, "run:test")
	env.Go("w", func(p *sim.Proc) {
		r.Instant(obs.LayerCluster, "route", 0, 1, obs.NoDevice, 0)
		q := r.StartSpan(obs.LayerServing, "queue", 0, 1, 0, 0)
		p.Sleep(2 * time.Millisecond)
		r.EndSpan(q)
		j := r.StartSpan(obs.LayerExecutor, "job", 0, 1, 0, 4)
		h := r.StartSpan(obs.LayerGPU, "h2d", 0, 1, 0, 0)
		p.Sleep(500 * time.Microsecond)
		r.EndSpan(h)
		k := r.StartSpan(obs.LayerGPU, "kernel", 0, 1, 0, 0)
		p.Sleep(3 * time.Millisecond)
		r.EndSpan(k)
		r.EndSpan(j)
		r.Instant(obs.LayerOverload, "limit_cut", obs.NoReq, obs.NoClass, obs.NoDevice, 8)
		r.Instant(obs.LayerServing, "shed", 1, 0, 0, 0)
		r.Instant(obs.LayerCluster, "failover", 1, 0, 1, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return r.Trace()
}

// TestWriteLifecycleGolden pins the full rendered trace byte-for-byte.
// Refresh with: go test ./internal/trace -run Golden -update
func TestWriteLifecycleGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLifecycleTimeline(&buf, lifecycleFixture(t), nil); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lifecycle.golden.json", buf.Bytes())
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file (re-run with -update if intentional)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestWriteLifecycleStructure checks the track layout: one process per
// device, class/executor/gpu tracks, labeled via metadata, instants
// thread-scoped.
func TestWriteLifecycleStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLifecycleTimeline(&buf, lifecycleFixture(t), nil); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			S    string `json:"s"`
			Args struct {
				ID    string `json:"id"`
				Layer string `json:"layer"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	threads := map[[2]int]string{}
	var spanIDs []string
	for _, ev := range decoded.TraceEvents {
		switch {
		case ev.Ph == "M":
			threads[[2]int{ev.Pid, ev.Tid}] = ev.Name
		case ev.Ph == "X":
			spanIDs = append(spanIDs, ev.Args.ID)
			if ev.Args.Layer == "" {
				t.Fatalf("span missing layer arg: %+v", ev)
			}
		case ev.Ph == "i" && ev.S != "t":
			t.Fatalf("instant not thread-scoped: %+v", ev)
		}
	}
	// Request 0's spans carry deterministic ids r0.<seq> in record order;
	// instants don't consume sequence numbers, so queue is r0.0.
	want := []string{"r0.0", "r0.1", "r0.2", "r0.3"}
	if len(spanIDs) != len(want) {
		t.Fatalf("span ids %v, want %v", spanIDs, want)
	}
	for i := range want {
		if spanIDs[i] != want[i] {
			t.Fatalf("span ids %v, want %v", spanIDs, want)
		}
	}
	// Device 0 spans land in pid 1, cluster-level events in pid 0, the
	// failover on device 1 in pid 2.
	for _, pid := range []int{0, 1, 2} {
		if _, ok := threads[[2]int{pid, 0}]; !ok {
			t.Fatalf("no process_name metadata for pid %d", pid)
		}
	}
}

// TestWriteLifecycleEmpty: an empty trace still renders traceEvents as an
// array (same Perfetto constraint as WriteChromeTrace).
func TestWriteLifecycleEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLifecycleTimeline(&buf, &obs.Trace{}, nil); err != nil {
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
}
