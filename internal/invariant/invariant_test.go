package invariant

import (
	"testing"

	"olympian/internal/metrics"
	"olympian/internal/overload"
	"olympian/internal/serving"
)

// TestCheckServingCatchesViolations plants one broken serving.Stats per rule
// and checks that exactly that rule fires.
func TestCheckServingCatchesViolations(t *testing.T) {
	good := serving.Stats{Requests: 7, Completed: 2, Failed: 5}
	good.Degraded = metrics.Degraded{Drops: 1, AdmissionSheds: 1, Evictions: 1}
	good.Degraded.ByClass[overload.Batch] = metrics.ClassCounts{Submitted: 4, Completed: 1, Shed: 2, Failed: 1}
	good.Degraded.ByClass[overload.Interactive] = metrics.ClassCounts{Submitted: 3, Completed: 1, Shed: 1, Expired: 1}
	if vs := CheckServing("device 0", good); len(vs) != 0 {
		t.Fatalf("false positives: %v", vs)
	}
	for _, tc := range []struct {
		rule   string
		mutate func(*serving.Stats)
	}{
		{"class-conservation", func(s *serving.Stats) { s.Degraded.ByClass[overload.Batch].Completed++ }},
		{"serving-conservation", func(s *serving.Stats) { s.Requests++ }},
		{"serving-shed-partition", func(s *serving.Stats) { s.Degraded.Drops++ }},
	} {
		st := good
		tc.mutate(&st)
		vs := CheckServing("device 0", st)
		if len(vs) != 1 || vs[0].Rule != tc.rule {
			t.Errorf("planted %q, got %v", tc.rule, vs)
		}
	}
}
