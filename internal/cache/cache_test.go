package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOncePerKey(t *testing.T) {
	c := New[int](8)
	calls := 0
	get := func(key string) (int, bool) {
		v, err, hit := c.Do(key, func() (int, error) { calls++; return calls, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	if v, hit := get("a"); v != 1 || hit {
		t.Errorf("first lookup = %d hit=%v", v, hit)
	}
	if v, hit := get("a"); v != 1 || !hit {
		t.Errorf("second lookup = %d hit=%v", v, hit)
	}
	if v, hit := get("b"); v != 2 || hit {
		t.Errorf("new key = %d hit=%v", v, hit)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[string](2)
	put := func(k string) {
		c.Do(k, func() (string, error) { return "v" + k, nil })
	}
	// stored looks k up without storing it: on a miss the compute fails,
	// and a failed compute is never stored.
	stored := func(k string) bool {
		_, _, hit := c.Do(k, func() (string, error) { return "", errors.New("absent") })
		return hit
	}
	put("a")
	put("b")
	if !stored("a") { // a is now most recent; b is the LRU tail
		t.Fatal("a should be stored")
	}
	put("c") // evicts b
	if !stored("a") {
		t.Error("a should survive")
	}
	if stored("b") {
		t.Error("b should be evicted")
	}
	if !stored("c") {
		t.Error("c should be present")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Hits != 3 || st.Misses != 4 || st.Errors != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnboundedCache(t *testing.T) {
	c := New[int](0)
	for i := 0; i < 100; i++ {
		k := fmt.Sprint(i)
		c.Do(k, func() (int, error) { return i, nil })
	}
	if c.Len() != 100 {
		t.Errorf("len = %d, want 100", c.Len())
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestErrorsAreNotStored(t *testing.T) {
	c := New[int](8)
	boom := errors.New("boom")
	calls := 0
	compute := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, err, _ := c.Do("k", compute); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err, hit := c.Do("k", compute)
	if err != nil || v != 42 || hit {
		t.Errorf("retry = (%d, %v, hit=%v)", v, err, hit)
	}
	if st := c.Stats(); st.Errors != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSingleFlightDeduplicates(t *testing.T) {
	c := New[int](8)
	var computes atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := c.Do("shared", func() (int, error) {
				computes.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the one compute is in flight, then release it.
	for computes.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if computes.Load() != 1 {
		t.Errorf("computes = %d, want 1", computes.Load())
	}
	for i, v := range results {
		if v != 7 {
			t.Errorf("result %d = %d", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Shared != n-1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPanicReleasesWaitersAndRetries(t *testing.T) {
	c := New[int](8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic should propagate to the computing caller")
			}
		}()
		c.Do("k", func() (int, error) { panic("kaboom") })
	}()
	v, err, hit := c.Do("k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 || hit {
		t.Errorf("after panic = (%d, %v, hit=%v)", v, err, hit)
	}
}
