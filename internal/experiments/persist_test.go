package experiments

import (
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sweep"
)

// expand materializes every point of a grammar, in expansion order.
func expand(tb testing.TB, s sweep.Space) []core.Point {
	tb.Helper()
	grid, err := s.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	pts := make([]core.Point, grid.Size())
	for i := range pts {
		pts[i] = grid.PointAt(int64(i))
	}
	return pts
}

// persistentToolflow returns a toolflow backed by a two-level outcome
// store, an unbounded memory front over a disk tier on dir, and the store.
func persistentToolflow(tb testing.TB, dir string) (*core.Toolflow, *cache.Store[core.Outcome]) {
	tb.Helper()
	disk, err := cache.OpenDisk(dir, 0)
	if err != nil {
		tb.Fatal(err)
	}
	store := cache.NewStore[core.Outcome](0, disk)
	return core.NewWithCache(models.Default(), store), store
}

// TestWarmStartPaperGridZeroComputes is the ISSUE's warm-start acceptance
// proof at paper scale: after one full 576-point evaluation sweeps into a
// cache directory, a fresh toolflow (fresh process stand-in: cold memory
// tier, same directory) re-serves the entire grid with zero simulator
// computations.
func TestWarmStartPaperGridZeroComputes(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper grid; skipped in -short mode")
	}
	dir := t.TempDir()
	pts := expand(t, PaperSpace())

	cold, coldStore := persistentToolflow(t, dir)
	coldOuts := cold.Sweep(pts)
	st := coldStore.StoreStats()
	if st.Computes != uint64(len(pts)) {
		t.Fatalf("cold computes = %d, want %d", st.Computes, len(pts))
	}
	if st.Disk == nil || st.Disk.Writes != uint64(len(pts)) {
		t.Fatalf("cold disk stats = %+v, want %d writes", st.Disk, len(pts))
	}

	warm, warmStore := persistentToolflow(t, dir)
	warmOuts := warm.Sweep(pts)
	st = warmStore.StoreStats()
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

// benchPoints is a representative 12-point slice of the paper grid, big
// enough that the warm/cold ratio reflects simulation cost rather than
// fixed overheads.
func benchPoints(b *testing.B) []core.Point {
	return expand(b, sweep.Space{Apps: []string{"BV", "QFT"}, Topologies: []string{"L6"}, Capacities: PaperCapacities})
}

// BenchmarkSweepWarmVsCold compares a cold sweep (empty cache directory,
// every point compiled and simulated) against a warm start (fresh
// toolflow on a pre-seeded directory — the restarted-replica path, where
// every point is a disk read). A warm iteration that computes any point
// fails. CI's bench-smoke job runs it; qccdbench's paper-grid-cold and
// grid-disk-warm workloads measure the same two paths against qccdd.
func BenchmarkSweepWarmVsCold(b *testing.B) {
	pts := benchPoints(b)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r, _ := persistentToolflow(b, b.TempDir())
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
		seed, _ := persistentToolflow(b, dir)
		for _, o := range seed.Sweep(pts) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r, store := persistentToolflow(b, dir)
			b.StartTimer()
			for _, o := range r.Sweep(pts) {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
			if st := store.StoreStats(); st.Computes != 0 {
				b.Fatalf("warm iteration computed %d points", st.Computes)
			}
		}
	})
}
