package experiments

import (
	"bytes"
	"hash/fnv"
	"testing"

	"olympian/internal/obs"
	"olympian/internal/telemetry"
)

// Hashes (fnv-64a) of the -quick overload experiment's telemetry timeline
// JSON and merged Prometheus exposition, recorded the way olympian-sim
// -timeline-out records them. They were taken while every counter was still
// a separately incremented series; reading counters off the Stats tallies
// must leave both byte-identical.
const (
	pinnedOverloadTimeline = 0x59fcb6b2b6b3d81e
	pinnedOverloadProm     = 0x4dedc6db85d886a9
)

func TestOverloadOutputsPinned(t *testing.T) {
	o := quickOpts()
	o.Obs = obs.NewRecorder()
	o.Obs.MuteLayer(obs.LayerGPU)
	o.Telemetry = &telemetry.Config{
		SLOs:  telemetry.DefaultServingSLOs(),
		Rules: telemetry.DefaultRules(),
	}
	r, err := Overload(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Timeline == nil {
		t.Fatal("overload produced no telemetry timeline")
	}
	var tl, prom bytes.Buffer
	if err := r.Timeline.WriteJSON(&tl); err != nil {
		t.Fatal(err)
	}
	if err := o.Obs.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if got := fnv64(tl.Bytes()); got != pinnedOverloadTimeline {
		t.Errorf("timeline JSON hash %#x, want %#x", got, uint64(pinnedOverloadTimeline))
	}
	if got := fnv64(prom.Bytes()); got != pinnedOverloadProm {
		t.Errorf("Prometheus exposition hash %#x, want %#x", got, uint64(pinnedOverloadProm))
	}
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
