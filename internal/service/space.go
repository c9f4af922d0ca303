package service

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/sweep"
)

// ShardSpec restricts a sweep to one index window of its grid's stable
// total order. Exactly one of the two forms must be used: Index/Count
// selects one window of the balanced count-way partition (the form a
// fleet of identical replicas uses), while Start/End names an explicit
// half-open [start, end) window. Because the
// partition is exact — disjoint, gap-free, union the full grid — n
// replicas each sweeping shard {i, n} of one sweep together stream every
// point exactly once, and a shared cache directory dedupes any work that
// overlaps across requests.
type ShardSpec struct {
	Index *int   `json:"index,omitempty"`
	Count *int   `json:"count,omitempty"`
	Start *int64 `json:"start,omitempty"`
	End   *int64 `json:"end,omitempty"`
}

// window validates the spec against a compiled grid and resolves it to
// an index window.
func (sp *ShardSpec) window(grid *sweep.Grid) (sweep.Window, error) {
	byIndex := sp.Index != nil || sp.Count != nil
	byRange := sp.Start != nil || sp.End != nil
	switch {
	case byIndex && byRange:
		return sweep.Window{}, errors.New("sweep: shard: index/count and start/end are mutually exclusive")
	case byIndex:
		if sp.Index == nil || sp.Count == nil {
			return sweep.Window{}, errors.New("sweep: shard: index and count must be set together")
		}
		return grid.Shard(*sp.Index, *sp.Count)
	case byRange:
		if sp.Start == nil || sp.End == nil {
			return sweep.Window{}, errors.New("sweep: shard: start and end must be set together")
		}
		return grid.Window(*sp.Start, *sp.End)
	default:
		return sweep.Window{}, errors.New("sweep: shard: specify index/count or start/end")
	}
}

// SweepHeader is the first NDJSON line of a sweep response: it names the
// sweep for GET /v1/sweeps/{id}, pins the grid identity the row cursors
// are minted against, and states exactly which index window this
// response will stream.
type SweepHeader struct {
	SweepID   string `json:"sweep_id"`
	SpaceHash string `json:"space_hash"`
	// GridSize is the full size of the grid: a list's length or a
	// grammar's expansion size.
	GridSize int64 `json:"grid_size"`
	// Start and End bound this response's half-open index window; Start
	// is nonzero when resuming or sharding, End < GridSize when a limit
	// or shard window applies.
	Start int64 `json:"start_index"`
	End   int64 `json:"end_index"`
	// ShardIndex and ShardCount echo an index/count shard request.
	ShardIndex *int `json:"shard_index,omitempty"`
	ShardCount *int `json:"shard_count,omitempty"`
}

// SweepStatus is the body of GET /v1/sweeps/{id}: a snapshot of one
// sweep's progress.
type SweepStatus struct {
	ID        string `json:"id"`
	SpaceHash string `json:"space_hash"`
	GridSize  int64  `json:"grid_size"`
	Start     int64  `json:"start_index"`
	End       int64  `json:"end_index"`
	// ShardIndex and ShardCount echo an index/count shard request, so a
	// coordinator polling GET /v1/sweeps can attribute progress per shard.
	ShardIndex *int `json:"shard_index,omitempty"`
	ShardCount *int `json:"shard_count,omitempty"`
	// Emitted counts rows written to the client so far; Failed and
	// CacheHits break them down.
	Emitted   int64 `json:"emitted"`
	Failed    int64 `json:"failed"`
	CacheHits int64 `json:"cache_hits"`
	Done      bool  `json:"done"`
	// ClientDropped reports that the response writer failed mid-stream;
	// the last emitted row's cursor is the resume point.
	ClientDropped bool  `json:"client_dropped,omitempty"`
	ElapsedUS     int64 `json:"elapsed_us"`
}

// sweepState is the mutable progress record of one sweep; it backs the
// SweepStatus the registry reports.
type sweepState struct {
	mu      sync.Mutex
	status  SweepStatus
	started time.Time
}

func (st *sweepState) note(failed, cached bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.status.Emitted++
	if failed {
		st.status.Failed++
	}
	if cached {
		st.status.CacheHits++
	}
}

func (st *sweepState) finish(dropped bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.status.Done = true
	st.status.ClientDropped = dropped
	st.status.ElapsedUS = time.Since(st.started).Microseconds()
}

// summary is the final line of a stream whose rows st has noted.
func (st *sweepState) summary() SweepSummary {
	snap := st.snapshot()
	return SweepSummary{
		Done:      true,
		Total:     int(snap.Emitted),
		Failed:    int(snap.Failed),
		CacheHits: int(snap.CacheHits),
		ElapsedUS: snap.ElapsedUS,
		SweepID:   snap.ID,
	}
}

func (st *sweepState) snapshot() SweepStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.status
	if !s.Done {
		s.ElapsedUS = time.Since(st.started).Microseconds()
	}
	return s
}

// maxTrackedSweeps bounds the sweep progress registry; finished sweeps
// are evicted first, oldest first, so long-running in-flight sweeps stay
// observable under churn.
const maxTrackedSweeps = 256

// sweepRegistry tracks sweeps for the progress endpoint.
type sweepRegistry struct {
	mu     sync.Mutex
	order  []string // insertion order, for eviction
	states map[string]*sweepState
}

func newSweepRegistry() *sweepRegistry {
	return &sweepRegistry{states: make(map[string]*sweepState)}
}

func (r *sweepRegistry) add(grid *sweep.Grid, start, end int64, shard *ShardSpec) *sweepState {
	st := &sweepState{
		status: SweepStatus{
			ID:        newSweepID(),
			SpaceHash: grid.Hash(),
			GridSize:  grid.Size(),
			Start:     start,
			End:       end,
		},
		started: time.Now(),
	}
	if shard != nil && shard.Index != nil {
		st.status.ShardIndex, st.status.ShardCount = shard.Index, shard.Count
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) >= maxTrackedSweeps {
		r.evictLocked()
	}
	r.order = append(r.order, st.status.ID)
	r.states[st.status.ID] = st
	return st
}

// evictLocked drops one entry: the oldest finished sweep, or the oldest
// overall if every tracked sweep is still in flight.
func (r *sweepRegistry) evictLocked() {
	victim := -1
	for i, id := range r.order {
		if r.states[id].snapshot().Done {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
	}
	delete(r.states, r.order[victim])
	r.order = append(r.order[:victim], r.order[victim+1:]...)
}

func (r *sweepRegistry) get(id string) (*sweepState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.states[id]
	return st, ok
}

func (r *sweepRegistry) snapshotAll() []SweepStatus {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	states := make([]*sweepState, 0, len(ids))
	for _, id := range ids {
		states = append(states, r.states[id])
	}
	r.mu.Unlock()
	out := make([]SweepStatus, 0, len(states))
	for _, st := range states {
		out = append(out, st.snapshot())
	}
	return out
}

func newSweepID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for the process anyway;
		// fall back to a time-derived id rather than panicking a request.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))[:16]
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sweeps.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "sweep: unknown sweep id %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st.snapshot())
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sweeps.snapshotAll())
}
