package obs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"olympian/internal/model"
	"olympian/internal/obs"
	"olympian/internal/overload"
	"olympian/internal/serving"
	"olympian/internal/sim"
	"olympian/internal/trace"
)

// tracedServingRun drives a small faulty serving workload with a recorder
// attached and returns the rendered lifecycle trace bytes.
func tracedServingRun(t *testing.T, seed int64) []byte {
	t.Helper()
	rec := obs.NewRecorder()
	env := sim.NewEnv(seed)
	defer env.Shutdown()
	rec.Bind(env, "run:serving")
	srv, err := serving.NewServer(env, serving.Config{
		MaxBatch:     4,
		BatchTimeout: 2 * time.Millisecond,
		MaxQueue:     16,
		Deadline:     80 * time.Millisecond,
		Seed:         seed,
		Admission:    &overload.AIMDConfig{},
		Obs:          rec,
	}, env.Rand())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 3))
	at := time.Duration(0)
	for i := 0; i < 60; i++ {
		at += time.Duration(rng.ExpFloat64() * float64(2*time.Millisecond))
		arrive := at
		class := overload.Batch
		if rng.Float64() < 0.4 {
			class = overload.Interactive
		}
		env.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			p.Sleep(arrive)
			req, err := srv.SubmitClass(model.Inception, class)
			if err != nil {
				return
			}
			req.Done().Wait(p)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteLifecycleTimeline(&buf, rec.Trace(), nil); err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans()) == 0 || len(rec.Trace().Instants) == 0 {
		t.Fatalf("instrumentation recorded nothing: %d spans, %d instants",
			len(rec.Spans()), len(rec.Trace().Instants))
	}
	return buf.Bytes()
}

// TestServingTraceByteIdentical is the determinism contract end to end:
// two same-seed runs of an instrumented serving stack render byte-identical
// lifecycle traces, and a different seed renders a different one.
func TestServingTraceByteIdentical(t *testing.T) {
	a := tracedServingRun(t, 42)
	b := tracedServingRun(t, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed lifecycle traces differ")
	}
	c := tracedServingRun(t, 43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical traces (instrumentation probably not recording)")
	}
}

// TestRecorderDoesNotPerturbResults: the observed run must report exactly
// the same serving stats as an unobserved same-seed run — observability
// reads the simulation, never steers it.
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	run := func(rec *obs.Recorder) serving.Stats {
		env := sim.NewEnv(7)
		defer env.Shutdown()
		rec.Bind(env, "run")
		srv, err := serving.NewServer(env, serving.Config{
			MaxBatch:     4,
			BatchTimeout: 2 * time.Millisecond,
			MaxQueue:     8,
			Deadline:     60 * time.Millisecond,
			Seed:         7,
			Admission:    &overload.AIMDConfig{},
			Obs:          rec,
		}, env.Rand())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			arrive := time.Duration(i) * 700 * time.Microsecond
			env.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
				p.Sleep(arrive)
				req, err := srv.SubmitClass(model.Inception, overload.Interactive)
				if err != nil {
					return
				}
				req.Done().Wait(p)
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return srv.Stats()
	}
	withRec := run(obs.NewRecorder())
	without := run(nil)
	if fmt.Sprintf("%+v", withRec) != fmt.Sprintf("%+v", without) {
		t.Fatalf("recorder perturbed the run:\nwith:    %+v\nwithout: %+v", withRec, without)
	}
}
