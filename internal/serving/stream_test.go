package serving

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"olympian/internal/gpu"
	"olympian/internal/model"
	"olympian/internal/sim"
)

// TestStackDrawsOnlyItsStream pins the rule that a device stack draws only
// from the stream its owner hands to NewServer: the driver's stream weights
// and picks, node jitter and policy tie-breaks. One server runs the same
// requests twice on a stream seeded 5; the second run also drives another
// device on the same environment with env.Rand() as its stream and a
// Schedule chain that draws from env.Rand(). Neither may move an outcome.
// The Olympian server drains the device at every gang switch, so its driver
// picks never see two streams; the vanilla server's do.
func TestStackDrawsOnlyItsStream(t *testing.T) {
	for _, olympian := range []bool{true, false} {
		quiet, quietStats := stackRun(t, olympian, false)
		noisy, noisyStats := stackRun(t, olympian, true)
		if quiet != noisy {
			t.Errorf("olympian=%v: outcome hash %#x with other draws on the environment, %#x without", olympian, noisy, quiet)
		}
		if !reflect.DeepEqual(quietStats, noisyStats) {
			t.Errorf("olympian=%v: stats with other draws on the environment:\n%+v\nwithout:\n%+v", olympian, noisyStats, quietStats)
		}
		if quietStats.Completed != 40 {
			t.Fatalf("olympian=%v: %d of 40 requests completed", olympian, quietStats.Completed)
		}
	}
}

// stackRun serves 40 Inception requests 1 ms apart on a stream seeded 5,
// with node jitter on, and returns the fnv-64a hash of every request's
// FinishAt and Err together with the server's stats. With noise, other
// code on the environment draws from env.Rand() for the first 30 ms, well
// inside the run, so that the run's end (and with it Utilization) stays
// the server's.
func stackRun(t *testing.T, olympian, noise bool) (uint64, Stats) {
	env := sim.NewEnv(1)
	srv := newTestServer(t, env, Config{UseOlympian: olympian}, rand.New(rand.NewSource(5)))
	if noise {
		other := gpu.New(env, gpu.GTX1080Ti, env.Rand())
		for i := 0; i < 40; i++ {
			// A fresh stream per kernel draws its weight at submission.
			env.Schedule(time.Duration(i)*500*time.Microsecond, func() {
				other.Start(gpu.Kernel{Stream: &gpu.Stream{ID: i}, Duration: 200 * time.Microsecond, Occupancy: 0.6})
			})
		}
		ticks := 0
		var tick func()
		tick = func() {
			env.Rand().Int63()
			if ticks++; ticks < 300 {
				env.Schedule(100*time.Microsecond, tick)
			}
		}
		env.Schedule(0, tick)
	}
	reqs := submitN(t, env, srv, model.Inception, 40, time.Millisecond)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	h := fnv.New64a()
	var buf []byte
	for _, r := range reqs {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(r.FinishAt))
		if r.Err != nil {
			buf = append(buf, r.Err.Error()...)
		}
		h.Write(buf)
	}
	return h.Sum64(), srv.Stats()
}
