package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sweep"
)

// TestCachedRunnerDedupsAcrossSweeps reruns a small sweep on one cached
// runner and checks each unique design point is computed exactly once.
func TestCachedRunnerDedupsAcrossSweeps(t *testing.T) {
	r := core.NewCached(models.Default(), 0)
	pts := expand(t, sweep.Space{Apps: []string{"BV"}, Topologies: []string{"L6"}, Capacities: []int{14, 18, 22}})
	for run := 0; run < 3; run++ {
		outs := r.Sweep(pts)
		for i, o := range outs {
			if o.Err != nil {
				t.Fatalf("run %d outcome %d: %v", run, i, o.Err)
			}
		}
	}
	st := r.CacheStats()
	if st.Misses != uint64(len(pts)) {
		t.Errorf("unique computes = %d, want %d (stats %+v)", st.Misses, len(pts), st)
	}
	if st.Hits+st.Shared != uint64(2*len(pts)) {
		t.Errorf("reused outcomes = %d, want %d", st.Hits+st.Shared, 2*len(pts))
	}
}

// TestFigureRerunsHitCache regenerates Figure 6 twice on one cached
// toolflow — the second pass must not compute any design point, which is
// what makes rerunning the full cmd/experiments evaluation cheap.
func TestFigureRerunsHitCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	r := core.NewCached(models.Default(), 0)
	if _, err := RunFig6(r); err != nil {
		t.Fatal(err)
	}
	first := r.CacheStats()
	want := uint64(len(PaperApps) * len(PaperCapacities))
	if first.Misses != want {
		t.Fatalf("first pass computes = %d, want %d", first.Misses, want)
	}
	f, err := RunFig6(r)
	if err != nil {
		t.Fatal(err)
	}
	second := r.CacheStats()
	if second.Misses != first.Misses {
		t.Errorf("second pass computed %d new points, want 0", second.Misses-first.Misses)
	}
	if second.Hits < want {
		t.Errorf("second pass hits = %d, want >= %d", second.Hits, want)
	}
	if len(f.Failures()) != 0 {
		t.Errorf("failures = %v", f.Failures())
	}
}
