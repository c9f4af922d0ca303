package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/sweep"
)

// ShardSpec restricts a grammar sweep to one index window of the
// expansion's stable total order. Exactly one of the two forms must be
// used: Index/Count selects one window of the balanced count-way
// partition (the form a fleet of identical replicas uses), while
// Start/End names an explicit half-open [start, end) window. Because the
// partition is exact — disjoint, gap-free, union the full grid — n
// replicas each sweeping shard {i, n} of one space together stream every
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

// SweepHeader is the first NDJSON line of a grammar sweep response: it
// names the sweep for GET /v1/sweeps/{id}, pins the space identity the
// row cursors are minted against, and states exactly which index window
// this response will stream.
type SweepHeader struct {
	SweepID   string `json:"sweep_id"`
	SpaceHash string `json:"space_hash"`
	// GridSize is the full expansion size of the grammar.
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
// grammar sweep's progress.
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

// sweepState is the mutable progress record behind one SweepStatus.
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

// sweepRegistry tracks grammar sweeps for the progress endpoint.
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

// slot carries one grid index through the worker pool. res is buffered so
// a worker can always deposit its row and move on, even after the client
// has dropped and the emitter stopped draining promptly. A worker closes
// res without a row when the request ends before it evaluates the index.
type slot struct {
	idx int64
	res chan RunResponse
}

// handleSpaceSweep streams the lazy expansion of a sweep grammar as
// NDJSON. Points are evaluated concurrently, one compile group per
// worker, but emitted strictly in expansion order, each row carrying the
// cursor that resumes immediately after it; peak expanded-point
// residency is O(workers×|gates|), never O(grid).
func (s *Server) handleSpaceSweep(w http.ResponseWriter, r *http.Request, req *SweepRequest) {
	grid, err := req.Space.Compile()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A shard restricts the request to one window of the expansion; the
	// points cap then applies to what this request would actually stream,
	// so a million-point space is admissible as long as each replica's
	// slice is within bounds.
	window := grid.FullWindow()
	if req.Shard != nil {
		if window, err = req.Shard.window(grid); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if window.Len() > s.cfg.MaxSpacePoints {
		writeError(w, http.StatusBadRequest, "sweep: request covers %d points, exceeding the limit of %d",
			window.Len(), s.cfg.MaxSpacePoints)
		return
	}
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "sweep: limit must be >= 0, got %d", req.Limit)
		return
	}
	params, err := s.params(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "params: %v", err)
		return
	}
	start := window.Start
	if req.ResumeFrom != "" {
		idx, err := grid.Resume(req.ResumeFrom)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Cursors are minted against the full expansion; inside a shard
		// they resume within the window only. Clamping (never rejecting)
		// means a cursor taken from any replica's stream composes with any
		// shard: out-of-window cursors yield the window start or an empty
		// remainder instead of leaking another shard's rows.
		start = window.Clamp(idx)
	}
	end := window.End
	if req.Limit > 0 && start+req.Limit < end {
		end = start + req.Limit
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.MaxWorkers {
		workers = s.cfg.MaxWorkers
	}
	if n := end - start; int64(workers) > n {
		workers = int(n)
	}
	if workers < 1 {
		workers = 1
	}

	tf := s.root.WithParams(params)
	st := s.sweeps.add(grid, start, end, req.Shard)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// The emitter below is the only writer, so no write lock is needed.
	// A failed write (client gone) cancels the feeder; workers then wind
	// down after at most their in-flight rows.
	ctx, cancelFeed := context.WithCancel(r.Context())
	defer cancelFeed()
	enc := json.NewEncoder(w)
	alive := true
	write := func(v any) {
		if !alive {
			return
		}
		if err := enc.Encode(v); err != nil {
			alive = false
			cancelFeed()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	write(SweepHeader{
		SweepID:    st.status.ID,
		SpaceHash:  grid.Hash(),
		GridSize:   grid.Size(),
		Start:      start,
		End:        end,
		ShardIndex: st.status.ShardIndex,
		ShardCount: st.status.ShardCount,
	})

	// Rows are dispatched by compile group: the rows of the window that
	// differ only in the gate axis, so share one compiled program. The
	// feeder hands a worker the whole group when it reaches the group's
	// first row; the worker compiles the program once and simulates each
	// row from it, checking the request between rows.
	//
	// order is the emission sequence and the backpressure bound: the
	// feeder stalls once workers×|gates| slots are pending emission. A
	// group's later rows wait there for the rows between them, so that is
	// room for every worker to hold a group while the emitter waits on
	// the earliest one.
	order := make(chan *slot, workers*len(grid.Space().Gates))
	work := make(chan []*slot)
	go func() {
		defer close(order)
		defer close(work)
		win := sweep.Window{Start: start, End: end}
		// pending holds the slots of dispatched groups' later rows until
		// the feeder reaches them.
		pending := make(map[int64]*slot)
		for i := start; i < end; i++ {
			// Checked before the selects: both channel sends can be ready at
			// the same time as ctx.Done, and select would pick arbitrarily —
			// this keeps a dropped client from feeding any further points.
			if ctx.Err() != nil {
				return
			}
			sl, ok := pending[i]
			if ok {
				delete(pending, i)
			} else {
				// i is its group's first row in the window. Hand the group
				// to a worker before queueing any of its slots for emission:
				// every slot the emitter sees is then guaranteed to be filled
				// or closed, so it can never be stranded on an empty slot.
				var group []*slot
				for _, j := range grid.Group(i, win) {
					member := &slot{idx: j, res: make(chan RunResponse, 1)}
					group = append(group, member)
					if j != i {
						pending[j] = member
					}
				}
				select {
				case work <- group:
				case <-ctx.Done():
					return
				}
				sl = group[0]
			}
			select {
			case order <- sl:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for group := range work {
				g := tf.NewGroup()
				for _, sl := range group {
					if ctx.Err() != nil {
						close(sl.res)
						continue
					}
					// Each row is timed on its own; the group's first
					// computed row carries the compile.
					opStart := time.Now()
					o, cached := g.Do(grid.PointAt(sl.idx))
					sl.res <- runResponse(o, cached, time.Since(opStart))
				}
			}
		}()
	}

	sweepStart := time.Now()
	for sl := range order {
		resp, ok := <-sl.res
		if !ok {
			// The request ended before this row was evaluated; a later row
			// would leave a gap in the stream.
			alive = false
		}
		if !alive {
			continue // drain so progress stays truthful
		}
		write(SweepLine{
			Seq:         int(sl.idx),
			Cursor:      grid.Cursor(sl.idx + 1),
			RunResponse: resp,
		})
		if alive {
			st.note(resp.Error != "", resp.Cached)
		}
	}
	wg.Wait()
	snap := st.snapshot()
	summary := SweepSummary{
		Done:      true,
		SweepID:   st.status.ID,
		Total:     int(snap.Emitted),
		Failed:    int(snap.Failed),
		CacheHits: int(snap.CacheHits),
		ElapsedUS: time.Since(sweepStart).Microseconds(),
	}
	// A limited request that stopped short of its window end gets the
	// continuation cursor in the summary, so paginating clients need not
	// track per-row cursors. A completed shard window is done — its
	// summary carries no cursor even when the grid continues beyond it;
	// the next window belongs to another replica.
	if end < window.End {
		summary.NextCursor = grid.Cursor(end)
	}
	write(summary)
	st.finish(!alive)
}
