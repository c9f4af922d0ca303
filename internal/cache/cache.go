// Package cache provides the content-addressed outcome cache behind the
// design toolflow and the sweep service: a concurrent, LRU-bounded map
// from canonical keys to computed values with single-flight deduplication,
// so identical in-flight design points are computed exactly once no matter
// how many sweeps or HTTP requests ask for them concurrently.
package cache

import (
	"container/list"
	"fmt"
	"sync"
)

// Stats is a snapshot of cache activity counters.
type Stats struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64 `json:"hits"`
	// Shared counts lookups that attached to an in-flight computation of
	// the same key instead of starting their own (single-flight dedup).
	Shared uint64 `json:"shared"`
	// Misses counts computations actually started. Errored computations
	// are never stored, so a failing key counts a miss per retry; on a
	// deterministic error-free workload this is the number of unique keys
	// evaluated.
	Misses uint64 `json:"misses"`
	// Errors counts computations that returned an error (never stored).
	Errors uint64 `json:"errors"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of stored values.
	Entries int `json:"entries"`
}

// Cache is a bounded concurrent memo table. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Cache[V any] struct {
	mu         sync.Mutex
	maxEntries int
	ll         *list.List
	items      map[string]*list.Element
	inflight   map[string]*call[V]
	stats      Stats
}

type entry[V any] struct {
	key string
	val V
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most maxEntries values, evicting the
// least recently used entry when full. maxEntries <= 0 means unbounded.
func New[V any](maxEntries int) *Cache[V] {
	return &Cache[V]{
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		inflight:   make(map[string]*call[V]),
	}
}

// Do returns the value for key, computing it with compute on a miss.
// Concurrent calls with the same key share one computation: exactly one
// caller runs compute, the rest block until it finishes. Successful
// results are stored (subject to the LRU bound); errors are returned to
// every waiter but never stored, so a later call retries. The returned
// bool reports whether the value came from the cache or an in-flight
// computation rather than a fresh compute by this caller.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, error, bool) {
	c.mu.Lock()
	if ele, ok := c.items[key]; ok {
		c.ll.MoveToFront(ele)
		c.stats.Hits++
		v := ele.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, nil, true
	}
	if cl, ok := c.inflight[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		<-cl.done
		return cl.val, cl.err, true
	}
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()

	// Settle the call even if compute panics, so waiters are released and
	// the key is retryable, then let the panic propagate to this caller.
	finished := false
	defer func() {
		if !finished {
			cl.err = fmt.Errorf("cache: compute for %q panicked", key)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if cl.err == nil {
			c.add(key, cl.val)
		} else {
			c.stats.Errors++
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = compute()
	finished = true
	return cl.val, cl.err, false
}

// add stores the value of a finished computation under the lock,
// evicting the LRU tail past the bound. The key is absent: only the one
// in-flight computation of a key stores it.
func (c *Cache[V]) add(key string, val V) {
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*entry[V]).key)
		c.stats.Evictions++
	}
}

// Len returns the current number of stored entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the activity counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
