package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/models"
)

// paperGridPoints expands PaperSpace into the materialized 576-point
// golden grid.
func paperGridPoints(t testing.TB) []Point {
	t.Helper()
	grid, err := PaperSpace().Compile()
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, grid.Size())
	for i := range pts {
		pts[i] = grid.PointAt(int64(i))
	}
	return pts
}

// TestWarmStartPaperGridZeroComputes is the ISSUE's warm-start acceptance
// proof at paper scale: after one full 576-point evaluation sweeps into a
// cache directory, a fresh runner (fresh process stand-in: cold memory
// tier, same directory) re-serves the entire grid with zero simulator
// computations.
func TestWarmStartPaperGridZeroComputes(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper grid; skipped in -short mode")
	}
	dir := t.TempDir()
	pts := paperGridPoints(t)

	cold, err := NewPersistentRunner(models.Default(), 0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldOuts := cold.Sweep(pts)
	st, ok := StoreStats(cold)
	if !ok {
		t.Fatal("persistent runner has no store")
	}
	if st.Computes != uint64(len(pts)) {
		t.Fatalf("cold computes = %d, want %d", st.Computes, len(pts))
	}
	if st.Disk == nil || st.Disk.Writes != uint64(len(pts)) {
		t.Fatalf("cold disk stats = %+v, want %d writes", st.Disk, len(pts))
	}

	warm, err := NewPersistentRunner(models.Default(), 0, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warmOuts := warm.Sweep(pts)
	st, _ = StoreStats(warm)
	if st.Computes != 0 {
		t.Fatalf("warm computes = %d, want 0", st.Computes)
	}
	if st.Disk.Reads != uint64(len(pts)) {
		t.Fatalf("warm disk reads = %d, want %d", st.Disk.Reads, len(pts))
	}
	for i := range pts {
		if coldOuts[i].Err != nil || warmOuts[i].Err != nil {
			t.Fatalf("point %s: cold err %v, warm err %v", pts[i], coldOuts[i].Err, warmOuts[i].Err)
		}
		// The stable JSON encoding round-trips float64 bits exactly, so
		// encoding equality is result equality.
		cold, err := json.Marshal(coldOuts[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := json.Marshal(warmOuts[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(cold) != string(warm) {
			t.Errorf("point %s: warm result diverged from cold\ncold: %s\nwarm: %s", pts[i], cold, warm)
		}
	}
}

// TestStoreStatsOnPlainRunner pins that StoreStats declines non-persistent
// runners instead of inventing counters.
func TestStoreStatsOnPlainRunner(t *testing.T) {
	if _, ok := StoreStats(NewCachedRunner(models.Default(), 0)); ok {
		t.Error("StoreStats claimed a memory-only runner has a store")
	}
	if _, ok := StoreStats(NewRunner(models.Default())); ok {
		t.Error("StoreStats claimed an uncached runner has a store")
	}
}

// benchPoints is a representative 12-point slice of the paper grid, big
// enough that the warm/cold ratio reflects simulation cost rather than
// fixed overheads.
func benchPoints() []Point {
	pts := CapacitySweep("BV", "L6", models.FM, models.GS, PaperCapacities)
	return append(pts, CapacitySweep("QFT", "L6", models.FM, models.GS, PaperCapacities)...)
}

// BenchmarkSweepWarmVsCold compares a cold sweep (empty cache directory,
// every point compiled and simulated) against a warm start (fresh runner
// on a pre-seeded directory — the restarted-replica path, where every
// point is a disk read). A warm iteration that computes any point fails.
// CI's bench-smoke job runs it; qccdbench's paper-grid-cold and
// grid-disk-warm workloads measure the same two paths against qccdd.
func BenchmarkSweepWarmVsCold(b *testing.B) {
	pts := benchPoints()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r, err := NewPersistentRunner(models.Default(), 0, b.TempDir(), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, o := range r.Sweep(pts) {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		seed, err := NewPersistentRunner(models.Default(), 0, dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range seed.Sweep(pts) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r, err := NewPersistentRunner(models.Default(), 0, dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, o := range r.Sweep(pts) {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
			st, _ := StoreStats(r)
			if st.Computes != 0 {
				b.Fatalf("warm iteration computed %d points", st.Computes)
			}
		}
	})
}
