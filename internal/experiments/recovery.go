package experiments

import (
	"fmt"
	"math"
	"time"

	"olympian/internal/cluster"
	"olympian/internal/faults"
	"olympian/internal/invariant"
	"olympian/internal/model"
	"olympian/internal/overload"
)

// recoveryCell drives one crash-recovery scenario: a 4-device fleet with the
// given crash plan on devices 0 and 2 (1 and 3 stay clean, so the fleet is
// never fully dead), a fixed-gap arrival train, and a deadline that makes
// goodput sensitive to lost capacity — survivors absorb a dead device's load
// until their queues age requests past the deadline.
type recoveryCell struct {
	crashEvery time.Duration // mean interval between crashes (0 = no faults)
	recovery   time.Duration // restart delay; 0 = permanent death
	requests   int
	gap        time.Duration
	seed       int64
}

func (rc recoveryCell) config() cluster.Config {
	var plan *faults.Plan
	if rc.crashEvery > 0 {
		plan = &faults.Plan{CrashEvery: rc.crashEvery, CrashRecovery: rc.recovery}
		if rc.recovery > 0 {
			plan.MaxCrashes = 2
		}
	}
	return cluster.Config{
		Seed:         rc.seed,
		Devices:      shardedFleet(4),
		Faults:       []*faults.Plan{plan, nil, plan, nil},
		MaxBatch:     8,
		BatchTimeout: 500 * time.Microsecond,
		Deadline:     25 * time.Millisecond,
		MaxQueue:     256,
	}
}

// run executes the cell on one engine and audits the quiesced run with the
// request-conservation checker. With two clean devices a route can never
// fail synchronously, so a rejected arrival is an error.
func (rc recoveryCell) run(engine cluster.Engine) (cluster.Stats, []invariant.Violation, error) {
	c, err := cluster.NewSharded(rc.config(), engine)
	if err != nil {
		return cluster.Stats{}, nil, err
	}
	i := -1
	st, vs, err := invariant.DriveSharded(c, rc.requests, func() invariant.Arrival {
		i++
		return invariant.Arrival{At: time.Duration(i) * rc.gap, Model: model.Micro, Class: overload.Interactive}
	}, "")
	if err == nil && st.Requests != rc.requests {
		err = fmt.Errorf("recovery: %d of %d arrivals rejected at routing", rc.requests-st.Requests, rc.requests)
	}
	return st, vs, err
}

// Recovery measures the crash-recovery plane: goodput retention, MTTR, and
// unavailability across a sweep of crash rate x recovery delay (including
// permanent death), with every cell audited for request conservation and one
// cell probed for cross-engine bit-identity.
func Recovery(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "recovery",
		Title: "Crash recovery: goodput retention, MTTR, availability",
		Paper: "Robustness study: permanent device failures and replica resurrection with modeled warm-up must degrade goodput no faster than availability",
		Headers: []string{
			"crash every", "recovery", "crashes", "revives", "MTTR ms",
			"availability", "goodput req/s", "retention",
		},
	}

	// The train runs at fleet saturation (the 4-device micro fleet completes
	// ~250k req/s), so a dead replica's lost capacity shows up directly as
	// lost completion rate rather than vanishing into headroom.
	requests, gap := 4000, 4*time.Microsecond
	if o.Quick {
		requests = 2000
	}

	// Baseline: the same fleet and arrival train with no faults.
	base := recoveryCell{requests: requests, gap: gap, seed: o.Seed + 41}
	baseSt, baseVs, err := base.run(cluster.Sharded)
	if err != nil {
		return nil, err
	}
	violations := len(baseVs)
	rep.AddRow("none", "-", "0", "0", "0",
		"1.000", fmt.Sprintf("%.0f", baseSt.Goodput), "1.000")

	crashEverys := []time.Duration{3 * time.Millisecond, 6 * time.Millisecond}
	recoveries := []time.Duration{0, 2 * time.Millisecond, 6 * time.Millisecond}
	if o.Quick {
		crashEverys = crashEverys[:1]
	}

	var avails, retentions []float64
	var probe recoveryCell
	for _, every := range crashEverys {
		for _, rec := range recoveries {
			cell := recoveryCell{
				crashEvery: every, recovery: rec,
				requests: requests, gap: gap, seed: o.Seed + 41,
			}
			probe = cell
			st, vs, err := cell.run(cluster.Sharded)
			if err != nil {
				return nil, err
			}
			violations += len(vs)
			for _, v := range vs {
				rep.AddNote("INVARIANT VIOLATION (every=%v recovery=%v): %s", every, rec, v)
			}
			avail := 1 - st.Unavailability
			retention := 0.0
			if baseSt.Goodput > 0 {
				retention = st.Goodput / baseSt.Goodput
			}
			avails = append(avails, avail)
			retentions = append(retentions, retention)
			recLabel := "permanent"
			if rec > 0 {
				recLabel = rec.String()
			}
			rep.AddRow(
				every.String(), recLabel,
				fmt.Sprintf("%d", st.Crashes), fmt.Sprintf("%d", st.Revives),
				fmt.Sprintf("%.1f", st.MTTR.Seconds()*1e3),
				fmt.Sprintf("%.3f", avail),
				fmt.Sprintf("%.0f", st.Goodput),
				fmt.Sprintf("%.3f", retention),
			)
		}
	}

	// Goodput must track availability: across the sweep, retention and
	// availability fraction must be positively correlated — losing a replica
	// costs throughput in proportion to how long it stays lost.
	corr := pearson(avails, retentions)
	rep.AddNote("goodput retention vs availability correlation: %.2f over %d cells (positive = goodput tracks availability)",
		corr, len(avails))
	rep.SetMetric("retention_availability_corr", corr)
	rep.SetMetric("invariant_violations", float64(violations))
	rep.SetMetric("baseline_goodput", baseSt.Goodput)
	if n := len(retentions); n > 0 {
		rep.SetMetric("worst_retention", minOf(retentions))
	}

	// Engine identity on the last (hardest) cell: the single-heap reference
	// and the sharded engine must agree bit for bit, and a same-seed rerun
	// must reproduce the run exactly.
	ref, identical, deterministic, err := engineIdentity(func(engine cluster.Engine) (cluster.Stats, error) {
		st, _, err := probe.run(engine)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	rep.AddNote("engine identity on crash cell: sharded == single-heap = %v; same-seed rerun identical = %v (decision hash %x, %d crashes, %d revives, MTTR %v)",
		identical, deterministic, ref.DecisionHash, ref.Crashes, ref.Revives, ref.MTTR)
	rep.SetMetric("bit_identical", boolMetric(identical && deterministic))
	return rep, nil
}

// pearson computes the sample correlation of two equal-length series; 0 when
// either side is constant (no signal, not anticorrelation).
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
