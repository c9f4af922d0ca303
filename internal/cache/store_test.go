package cache

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

type payload struct {
	ID int    `json:"id"`
	S  string `json:"s"`
}

func newDiskStore(t *testing.T, dir string, entries int) *Store[payload] {
	t.Helper()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore[payload](entries, d)
}

func TestStoreMemoryOnlyCountsComputes(t *testing.T) {
	s := NewStore[payload](4, nil)
	key := diskKey("k")
	for i := 0; i < 3; i++ {
		v, err, cached := s.Do(key, func() (payload, error) { return payload{ID: 7}, nil })
		if err != nil || v.ID != 7 {
			t.Fatalf("do: %+v, %v", v, err)
		}
		if want := i > 0; cached != want {
			t.Errorf("iteration %d: cached = %v, want %v", i, cached, want)
		}
	}
	st := s.StoreStats()
	if st.Computes != 1 || st.Disk != nil || st.Memory.Hits != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreWritesThroughAndWarmStarts(t *testing.T) {
	dir := t.TempDir()
	s1 := newDiskStore(t, dir, 16)
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = diskKey(fmt.Sprintf("pt-%d", i))
		v, err, cached := s1.Do(keys[i], func() (payload, error) { return payload{ID: i, S: "computed"}, nil })
		if err != nil || cached || v.ID != i {
			t.Fatalf("cold do %d: %+v, %v, cached=%v", i, v, err, cached)
		}
	}
	if st := s1.StoreStats(); st.Computes != 5 || st.Disk.Writes != 5 {
		t.Fatalf("cold stats = %+v / disk %+v", st, st.Disk)
	}

	// A fresh Store on the same directory — a restarted or scaled-out
	// replica — serves every key from disk with zero computes.
	s2 := newDiskStore(t, dir, 16)
	for i, key := range keys {
		v, err, cached := s2.Do(key, func() (payload, error) {
			t.Fatal("warm store must not compute")
			return payload{}, nil
		})
		if err != nil || !cached || v.ID != i || v.S != "computed" {
			t.Fatalf("warm do %d: %+v, %v, cached=%v", i, v, err, cached)
		}
	}
	st := s2.StoreStats()
	if st.Computes != 0 {
		t.Errorf("warm computes = %d, want 0", st.Computes)
	}
	if st.Disk.Reads != 5 {
		t.Errorf("disk reads = %d, want 5", st.Disk.Reads)
	}

	// Second pass on the warm store is served from the promoted memory
	// front: no further disk traffic.
	for _, key := range keys {
		if _, err, cached := s2.Do(key, nil); err != nil || !cached {
			t.Fatalf("memory pass: err=%v cached=%v", err, cached)
		}
	}
	if st := s2.StoreStats(); st.Disk.Reads != 5 {
		t.Errorf("memory pass went to disk: %+v", st.Disk)
	}
}

// mustNotCompute is the compute of a lookup that must be served from a
// cache tier. It fails, so a wrong compute is never stored.
func mustNotCompute() (payload, error) { return payload{}, errors.New("computed") }

func TestStoreDiskHitPromotesToMemory(t *testing.T) {
	dir := t.TempDir()
	s1 := newDiskStore(t, dir, 16)
	key := diskKey("promote")
	s1.Do(key, func() (payload, error) { return payload{ID: 42}, nil })

	s2 := newDiskStore(t, dir, 16)
	for i := 0; i < 2; i++ {
		v, err, cached := s2.Do(key, mustNotCompute)
		if err != nil || !cached || v.ID != 42 {
			t.Fatalf("lookup %d = %+v, %v, cached=%v", i, v, err, cached)
		}
	}
	// The first lookup missed the cold memory front and read disk; the
	// second is a memory hit on the promoted value.
	st := s2.StoreStats()
	if st.Memory.Misses != 1 || st.Memory.Hits != 1 || st.Disk.Reads != 1 || st.Computes != 0 {
		t.Errorf("stats = %+v / disk %+v", st, st.Disk)
	}
}

func TestStoreErrorsNeverStored(t *testing.T) {
	dir := t.TempDir()
	s := newDiskStore(t, dir, 16)
	key := diskKey("failing")
	boom := errors.New("boom")
	if _, err, _ := s.Do(key, func() (payload, error) { return payload{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st := s.StoreStats()
	if st.Disk.Writes != 0 || st.Disk.Entries != 0 {
		t.Errorf("a failed compute reached disk: %+v", st.Disk)
	}
	// The key retries — and a success then persists.
	v, err, _ := s.Do(key, func() (payload, error) { return payload{ID: 1}, nil })
	if err != nil || v.ID != 1 {
		t.Fatalf("retry: %+v, %v", v, err)
	}
	if st := s.StoreStats(); st.Computes != 2 || st.Disk.Writes != 1 {
		t.Errorf("retry stats = %+v / %+v", st, st.Disk)
	}
}

func TestStoreUndecodableDiskEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	s1 := newDiskStore(t, dir, 16)
	key := diskKey("drifted")
	s1.Do(key, func() (payload, error) { return payload{ID: 1}, nil })

	// Overwrite the entry with a checksum-valid payload that is not valid
	// JSON for the value type — format drift between versions.
	s1.Disk().Write(key, []byte("not json"))

	s2 := newDiskStore(t, dir, 16)
	v, err, cached := s2.Do(key, func() (payload, error) { return payload{ID: 9}, nil })
	if err != nil || cached || v.ID != 9 {
		t.Fatalf("recompute: %+v, %v, cached=%v", v, err, cached)
	}
	st := s2.StoreStats()
	if st.Undecodable != 1 || st.Computes != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The recomputed value was rewritten and now round-trips.
	s3 := newDiskStore(t, dir, 16)
	if v, err, cached := s3.Do(key, mustNotCompute); err != nil || !cached || v.ID != 9 {
		t.Errorf("rewrite after drift: %+v, %v, cached=%v", v, err, cached)
	}
	if st := s3.StoreStats(); st.Disk.Reads != 1 || st.Computes != 0 {
		t.Errorf("stats after drift = %+v / disk %+v", st, st.Disk)
	}
}

func TestStoreLRUEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	s := newDiskStore(t, dir, 2) // tiny memory front
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = diskKey(fmt.Sprintf("lru-%d", i))
		s.Do(keys[i], func() (payload, error) { return payload{ID: i}, nil })
	}
	// keys[0] was evicted from memory but lives on disk: no recompute.
	v, err, cached := s.Do(keys[0], func() (payload, error) {
		t.Fatal("evicted entry must be re-read from disk, not recomputed")
		return payload{}, nil
	})
	if err != nil || !cached || v.ID != 0 {
		t.Fatalf("disk fallback: %+v, %v, cached=%v", v, err, cached)
	}
	if st := s.StoreStats(); st.Computes != 4 {
		t.Errorf("computes = %d, want 4", st.Computes)
	}
}

// TestStoreConcurrentTwoWritersOneDirectory is the cross-process model
// run in-process: two independent Stores (separate memory fronts and
// single-flight domains, like two replicas) hammer one shared directory
// concurrently. Every value read must be correct and complete, and the
// union of computes must cover every key — run under -race in CI.
func TestStoreConcurrentTwoWritersOneDirectory(t *testing.T) {
	dir := t.TempDir()
	sA := newDiskStore(t, dir, 8)
	sB := newDiskStore(t, dir, 8)

	const nKeys, rounds = 32, 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds*nKeys)
	for _, s := range []*Store[payload]{sA, sB} {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < nKeys; i++ {
					key := diskKey(fmt.Sprintf("shared-%d", i))
					want := payload{ID: i, S: fmt.Sprintf("value-%d", i)}
					v, err, _ := s.Do(key, func() (payload, error) { return want, nil })
					if err != nil {
						errs <- err
						continue
					}
					if v != want {
						errs <- fmt.Errorf("key %d: got %+v", i, v)
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stA, stB := sA.StoreStats(), sB.StoreStats()
	// Each replica computes a key at most once (its own single-flight),
	// and both fleets' results agree on disk.
	if stA.Computes > nKeys || stB.Computes > nKeys {
		t.Errorf("computes = %d + %d, want <= %d each", stA.Computes, stB.Computes, nKeys)
	}
	if got := stA.Disk.Corrupt + stB.Disk.Corrupt; got != 0 {
		t.Errorf("concurrent same-content writers produced %d corrupt reads", got)
	}
	// A third replica warm-starts with zero computes.
	sC := newDiskStore(t, dir, 64)
	for i := 0; i < nKeys; i++ {
		key := diskKey(fmt.Sprintf("shared-%d", i))
		if _, err, cached := sC.Do(key, func() (payload, error) {
			return payload{}, errors.New("cold compute on warm dir")
		}); err != nil || !cached {
			t.Fatalf("warm replica: err=%v cached=%v", err, cached)
		}
	}
	if st := sC.StoreStats(); st.Computes != 0 {
		t.Errorf("warm replica computes = %d", st.Computes)
	}
}

func TestStoreStatsJSONOmitsAbsentDisk(t *testing.T) {
	s := NewStore[payload](4, nil)
	st := s.StoreStats()
	if st.Disk != nil {
		t.Fatal("memory-only store must report no disk tier")
	}
	// Sanity: a disk-backed store reports a budget echo.
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if got := NewStore[payload](4, d).StoreStats().Disk.MaxBytes; got != 1234 {
		t.Errorf("max bytes echo = %d", got)
	}
	_ = os.RemoveAll(dir)
}
