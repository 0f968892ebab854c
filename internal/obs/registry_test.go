package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestVisitAllocsZero: once series are registered, the scrape walks read
// the registry in place — a visit over several counter, gauge, view and
// histogram families allocates nothing — and they visit in registration
// order.
func TestVisitAllocsZero(t *testing.T) {
	g := NewRegistry()
	var tally int
	for d := 0; d < 4; d++ {
		dev := strconv.Itoa(d)
		g.Counter("z_requests_total", "r", "device", dev).Inc()
		g.CounterView("a_kernels_total", "k", &tally, "device", dev)
		g.Gauge("m_depth", "d", "device", dev).Set(float64(d))
		g.Histogram("b_latency_seconds", "l", "device", dev).Observe(time.Duration(d+1) * time.Millisecond)
	}
	g.Histogram("y_ttft_seconds", "t")

	var scalars, hists []string
	g.VisitScalars(func(name, labels string, _ bool, _ float64, _ bool) { scalars = append(scalars, name+labels) })
	g.VisitHists(func(name, labels string, _ *Hist) { hists = append(hists, name+labels) })
	wantScalars := []string{
		`z_requests_total{device="0"}`, `z_requests_total{device="1"}`, `z_requests_total{device="2"}`, `z_requests_total{device="3"}`,
		`a_kernels_total{device="0"}`, `a_kernels_total{device="1"}`, `a_kernels_total{device="2"}`, `a_kernels_total{device="3"}`,
		`m_depth{device="0"}`, `m_depth{device="1"}`, `m_depth{device="2"}`, `m_depth{device="3"}`,
	}
	wantHists := []string{
		`b_latency_seconds{device="0"}`, `b_latency_seconds{device="1"}`, `b_latency_seconds{device="2"}`, `b_latency_seconds{device="3"}`,
		`y_ttft_seconds`,
	}
	if fmt.Sprint(scalars) != fmt.Sprint(wantScalars) {
		t.Fatalf("VisitScalars order %v, want %v", scalars, wantScalars)
	}
	if fmt.Sprint(hists) != fmt.Sprint(wantHists) {
		t.Fatalf("VisitHists order %v, want %v", hists, wantHists)
	}

	var sum float64
	var buckets uint64
	allocs := testing.AllocsPerRun(1000, func() {
		g.VisitScalars(func(_, _ string, _ bool, v float64, _ bool) { sum += v })
		g.VisitHists(func(_, _ string, h *Hist) { buckets += h.Buckets()[0] })
	})
	if allocs != 0 {
		t.Fatalf("registry visits allocate %v allocs/op, want 0", allocs)
	}
}

// TestVisitDuringRegistration pins the visit contract under -race: one
// goroutine registers families and series while others walk the registry
// (visits, Absorb, exposition). Every walk sees a registration-order
// prefix of each family, never a torn or reordered one.
func TestVisitDuringRegistration(t *testing.T) {
	const fams, perFam = 16, 32
	g := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for f := 0; f < fams; f++ {
			for i := 0; i < perFam; i++ {
				id := strconv.Itoa(i)
				g.Counter(fmt.Sprintf("c%02d_total", f), "c", "i", id).Inc()
				g.Histogram(fmt.Sprintf("h%02d_seconds", f), "h", "i", id).Observe(time.Millisecond)
			}
		}
	}()

	// checkPrefix walks one visit's (family, series) sequence: families
	// appear in registration order and each family's series run 0, 1, 2, …
	checkPrefix := func(kind string, seen [][2]string) {
		lastFam, next := "", 0
		for _, s := range seen {
			if s[0] != lastFam {
				if s[0] < lastFam {
					t.Errorf("%s visit: family %s after %s", kind, s[0], lastFam)
				}
				lastFam, next = s[0], 0
			}
			if want := `{i="` + strconv.Itoa(next) + `"}`; s[1] != want {
				t.Errorf("%s visit: %s%s, want %s%s", kind, s[0], s[1], s[0], want)
			}
			next++
		}
	}
	for walker := 0; walker < 2; walker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var ss, hs [][2]string
				g.VisitScalars(func(name, labels string, _ bool, _ float64, _ bool) { ss = append(ss, [2]string{name, labels}) })
				g.VisitHists(func(name, labels string, _ *Hist) { hs = append(hs, [2]string{name, labels}) })
				checkPrefix("scalar", ss)
				checkPrefix("hist", hs)
				NewRegistry().Absorb(g)
				if err := g.WritePrometheus(&bytes.Buffer{}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	n := 0
	g.VisitScalars(func(_, _ string, _ bool, v float64, _ bool) {
		if v != 1 {
			t.Errorf("counter value %v, want 1", v)
		}
		n++
	})
	if n != fams*perFam {
		t.Fatalf("visited %d scalar series, want %d", n, fams*perFam)
	}
}
