package cache

import (
	"encoding/json"
	"sync/atomic"
)

// Tier is the read-through contract the toolflow and service program
// against: both the in-memory Cache and the two-level Store satisfy it,
// so a persistent tier can be injected anywhere a memory cache is.
type Tier[V any] interface {
	// Do returns the value for key, computing it on a miss; concurrent
	// calls with the same key share one computation. The bool reports
	// whether the value came from any cache tier (or an in-flight
	// duplicate) rather than a fresh compute by this caller.
	Do(key string, compute func() (V, error)) (V, error, bool)
	// Stats snapshots the front (in-memory) tier counters.
	Stats() Stats
}

// Store is the two-level outcome cache: an in-memory LRU front over an
// optional shared on-disk back. Lookups fall through memory → disk →
// compute; computed values are written through to both tiers, and disk
// hits are promoted into memory. Because the disk tier may be a shared
// directory mounted by many replicas, a Store is how a fleet of qccdd
// processes behind a load balancer dedupes sweep work: any replica's
// computation warms every other replica, and a restarted process starts
// from the whole fleet's history instead of cold.
//
// Values cross the disk boundary as JSON (the wire format of the sweep
// service), so anything stored must round-trip through encoding/json.
// Errored computations are never stored in either tier.
type Store[V any] struct {
	mem      *Cache[V]
	disk     *Disk
	computes atomic.Uint64
	// undecodable counts disk payloads that verified byte-wise but failed
	// to decode (format drift between versions); dropped and recomputed.
	undecodable atomic.Uint64
}

// StoreStats is the full observability snapshot of a Store: the memory
// front, the disk back (absent for a memory-only store), and the number
// of actual computations — the figure a warm start drives to zero.
type StoreStats struct {
	Memory Stats `json:"memory"`
	// Computes counts compute functions actually invoked: lookups that
	// missed every tier. On a warm store re-serving known work this stays
	// zero no matter how many points are requested.
	Computes uint64 `json:"computes"`
	// Undecodable counts disk entries that passed checksum verification
	// but failed to decode, and were dropped for recomputation.
	Undecodable uint64     `json:"undecodable,omitempty"`
	Disk        *DiskStats `json:"disk,omitempty"`
}

// NewStore returns a two-level store: an LRU front of at most maxEntries
// values (<= 0 unbounded) over disk, which may be nil for a memory-only
// store (the front still counts computes, so warm-start proofs work
// uniformly).
func NewStore[V any](maxEntries int, disk *Disk) *Store[V] {
	return &Store[V]{mem: New[V](maxEntries), disk: disk}
}

// Disk returns the persistent tier, or nil for a memory-only store.
func (s *Store[V]) Disk() *Disk { return s.disk }

// Do returns the value for key, reading through memory, then disk, then
// compute. The in-memory tier's single-flight guarantee extends over the
// disk probe and the computation, so concurrent callers of one key do at
// most one disk read and one compute between them. Fresh computations
// are persisted before being returned; a corrupted or undecodable disk
// entry is dropped and recomputed as if absent.
func (s *Store[V]) Do(key string, compute func() (V, error)) (V, error, bool) {
	fromDisk := false
	v, err, hit := s.mem.Do(key, func() (V, error) {
		if v, ok := s.readDisk(key); ok {
			fromDisk = true
			return v, nil
		}
		s.computes.Add(1)
		v, err := compute()
		if err == nil {
			s.writeDisk(key, v)
		}
		return v, err
	})
	return v, err, hit || fromDisk
}

func (s *Store[V]) readDisk(key string) (V, bool) {
	var zero V
	if s.disk == nil {
		return zero, false
	}
	payload, ok := s.disk.Read(key)
	if !ok {
		return zero, false
	}
	var v V
	if err := json.Unmarshal(payload, &v); err != nil {
		s.undecodable.Add(1)
		s.disk.Drop(key)
		return zero, false
	}
	return v, true
}

func (s *Store[V]) writeDisk(key string, v V) {
	if s.disk == nil {
		return
	}
	payload, err := json.Marshal(v)
	if err != nil {
		s.disk.count(func(st *DiskStats) { st.WriteErrors++ })
		return
	}
	s.disk.Write(key, payload)
}

// Stats snapshots the in-memory front tier (the Tier contract).
func (s *Store[V]) Stats() Stats { return s.mem.Stats() }

// StoreStats snapshots every tier plus the compute counter.
func (s *Store[V]) StoreStats() StoreStats {
	st := StoreStats{
		Memory:      s.mem.Stats(),
		Computes:    s.computes.Load(),
		Undecodable: s.undecodable.Load(),
	}
	if s.disk != nil {
		d := s.disk.Stats()
		st.Disk = &d
	}
	return st
}

// Drop removes the entry stored under key, if any, counting it as
// corrupt-dropped. Used when a verified payload turns out undecodable.
func (d *Disk) Drop(key string) { d.dropCorrupt(d.path(key)) }
