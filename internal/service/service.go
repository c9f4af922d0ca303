// Package service exposes the design toolflow of Figure 3 as a long-lived
// HTTP/JSON daemon, so large architectural sweeps (TITAN-scale design
// spaces, far beyond the paper's Figures 6-8) can be driven remotely and
// share one content-addressed outcome cache across requests.
//
// Endpoints:
//
//	POST /v1/run         evaluate a single design point
//	POST /v1/sweep       evaluate a batch, streaming outcomes as NDJSON
//	                     in input order with per-row resume cursors; the
//	                     batch is a "points" list or a "space" sweep
//	                     grammar expanded lazily server-side
//	GET  /v1/sweeps      list tracked sweeps with progress
//	GET  /v1/sweeps/{id} report one sweep's progress
//	GET  /v1/apps        list the built-in Table II benchmarks and the
//	                     sized "<app>@<n>" form
//	GET  /v1/topologies  describe the device spec grammar with examples
//	GET  /v1/policies    list the compiler policies
//	GET  /v1/params      return the server's base physical parameters
//	GET  /healthz        liveness plus cache statistics
//
// Requests may carry a complete "params" object (the format of GET
// /v1/params) to evaluate under a different calibration; the outcome
// cache keys on (point, params), so calibrations never cross-talk.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Config bounds the server's resources. Zero fields take defaults.
type Config struct {
	// Params is the base physical model; the zero Params means
	// models.Default(). Any other invalid Params is rejected by New.
	Params models.Params
	// CacheEntries bounds the shared outcome cache (default 4096;
	// negative means unbounded).
	CacheEntries int
	// MaxWorkers caps the per-request sweep concurrency (default
	// GOMAXPROCS).
	MaxWorkers int
	// MaxSpacePoints caps the design points one sweep request streams:
	// the size of its window (default 10,000,000). A sweep streams with
	// O(workers) residency, so this bound is about total compute; a list's
	// memory is bounded by the 8 MiB request body cap.
	MaxSpacePoints int64
	// CacheDir, when non-empty, mounts a persistent disk tier for the
	// outcome cache on a directory that may be shared by many replicas:
	// computed outcomes are written through and survive restarts, so a
	// fresh process re-serving known work performs zero computations.
	CacheDir string
	// CacheDiskMaxBytes caps the disk tier's size; oldest entries are
	// evicted past it (0 = unbounded). Ignored without CacheDir.
	CacheDiskMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.Params == (models.Params{}) {
		c.Params = models.Default()
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	} else if c.CacheEntries < 0 {
		c.CacheEntries = 0 // unbounded
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSpacePoints <= 0 {
		c.MaxSpacePoints = 10_000_000
	}
	return c
}

// Server is the sweep service. Construct with New; safe for concurrent
// use.
type Server struct {
	cfg      Config
	outcomes *cache.Store[core.Outcome]
	start    time.Time
	sweeps   *sweepRegistry
	// root is the base calibration's toolflow. Each request's toolflow
	// derives from it, sharing the outcome cache, the circuit memo and
	// the compile counter.
	root *core.Toolflow
}

// New returns a server with one shared outcome cache: an in-memory LRU
// front, plus a persistent disk back when Config.CacheDir is set. A
// non-zero but invalid base calibration is an error, never silently
// replaced, and so is an unusable cache directory.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	var disk *cache.Disk
	if cfg.CacheDir != "" {
		var err error
		if disk, err = cache.OpenDisk(cfg.CacheDir, cfg.CacheDiskMaxBytes); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	outcomes := cache.NewStore[core.Outcome](cfg.CacheEntries, disk)
	return &Server{
		cfg:      cfg,
		outcomes: outcomes,
		start:    time.Now(),
		sweeps:   newSweepRegistry(),
		root:     core.NewWithCache(cfg.Params, outcomes),
	}, nil
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("GET /v1/apps", s.handleApps)
	mux.HandleFunc("GET /v1/topologies", s.handleTopologies)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /v1/params", s.handleParams)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps a request body's size.
const maxBodyBytes = 8 << 20

// decode reads a bounded JSON body into v, rejecting unknown fields so
// typos fail loudly instead of silently running defaults.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// params resolves a request's optional calibration override.
func (s *Server) params(override *models.Params) (models.Params, error) {
	if override == nil {
		return s.cfg.Params, nil
	}
	if err := override.Validate(); err != nil {
		return models.Params{}, err
	}
	return *override, nil
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Point core.Point `json:"point"`
	// Params optionally overrides the server calibration; it must be a
	// complete document (start from GET /v1/params).
	Params *models.Params `json:"params,omitempty"`
}

// RunResponse is the body of POST /v1/run.
type RunResponse struct {
	Point     core.Point  `json:"point"`
	Result    *sim.Result `json:"result,omitempty"`
	Error     string      `json:"error,omitempty"`
	Cached    bool        `json:"cached"`
	ElapsedUS int64       `json:"elapsed_us"`
}

// SweepLine is one NDJSON outcome line of POST /v1/sweep. Lines stream
// in input order. Seq is the point's index in the request's grid: its
// position in a points list, or its index in a grammar's expansion.
// Cursor resumes the sweep immediately after this row (pass it back as
// resume_from with the same points or space).
type SweepLine struct {
	Seq    int    `json:"seq"`
	Cursor string `json:"cursor"`
	RunResponse
}

func runResponse(o core.Outcome, cached bool, elapsed time.Duration) RunResponse {
	resp := RunResponse{
		Point:     o.Point,
		Result:    o.Result,
		Cached:    cached,
		ElapsedUS: elapsed.Microseconds(),
	}
	if o.Err != nil {
		resp.Error = o.Err.Error()
	}
	return resp
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if err := req.Point.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	params, err := s.params(req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "params: %v", err)
		return
	}
	start := time.Now()
	o, cached := s.root.WithParams(params).Do(req.Point)
	writeJSON(w, http.StatusOK, runResponse(o, cached, time.Since(start)))
}

// SweepRequest is the body of POST /v1/sweep. Exactly one of Points (a
// materialized list) or Space (the sweep grammar, expanded lazily
// server-side) must be set; both compile to one sweep.Grid, and every
// other field applies to either.
type SweepRequest struct {
	Points []core.Point `json:"points,omitempty"`
	// Space is the design-space grammar: the cross product of its axes
	// is validated up front and expanded lazily in a stable order.
	Space *sweep.Space `json:"space,omitempty"`
	// ResumeFrom continues a sweep from a cursor previously returned with
	// the same points or space.
	ResumeFrom string `json:"resume_from,omitempty"`
	// Limit caps the number of rows this response streams; the summary
	// then carries next_cursor for the remainder.
	Limit int64 `json:"limit,omitempty"`
	// Shard restricts a sweep to one index window of its grid, so n
	// replicas behind a load balancer can each stream a disjoint slice of
	// one sweep.
	Shard *ShardSpec `json:"shard,omitempty"`
	// Params optionally overrides the server calibration for every point.
	Params *models.Params `json:"params,omitempty"`
	// Workers caps this request's concurrency; clamped to the server
	// limit. Zero means the server limit.
	Workers int `json:"workers,omitempty"`
}

// grid compiles whichever form the request carries.
func (req *SweepRequest) grid() (*sweep.Grid, error) {
	switch {
	case req.Space != nil && len(req.Points) > 0:
		return nil, errors.New("sweep: points and space are mutually exclusive")
	case req.Space != nil:
		return req.Space.Compile()
	case len(req.Points) == 0:
		return nil, errors.New("sweep: no points and no space")
	}
	return sweep.List(req.Points)
}

// SweepSummary is the final NDJSON line of a sweep response. It is
// written only after every row, so a stream without one ended early.
type SweepSummary struct {
	Done      bool   `json:"done"`
	Total     int    `json:"total"`
	Failed    int    `json:"failed"`
	CacheHits int    `json:"cache_hits"`
	ElapsedUS int64  `json:"elapsed_us"`
	SweepID   string `json:"sweep_id"`
	// NextCursor appears when a limit stopped the stream short of its
	// window's end.
	NextCursor string `json:"next_cursor,omitempty"`
}

// handleSweep streams a sweep's grid as NDJSON: a header, then one row
// per point, then a summary. Points are evaluated concurrently, one
// compile group per worker, but emitted strictly in grid order, each row
// carrying the cursor that resumes immediately after it; peak
// expanded-point residency is O(workers × group width), never O(grid).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	grid, err := req.grid()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A shard restricts the request to one window of the grid; the points
	// cap then applies to what this request would actually stream, so a
	// million-point space is admissible as long as each replica's slice is
	// within bounds.
	window := grid.FullWindow()
	if req.Shard != nil {
		if window, err = req.Shard.window(grid); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if s.tooLarge(w, window.Len()) {
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
		// Cursors are minted against the full grid; inside a shard they
		// resume within the window only. Clamping (never rejecting) means a
		// cursor taken from any replica's stream composes with any shard:
		// out-of-window cursors yield the window start or an empty
		// remainder instead of leaking another shard's rows.
		start = window.Clamp(idx)
	}
	end := window.End
	// Compared with what is left of the window, a huge limit cannot
	// overflow start+limit.
	if req.Limit > 0 && req.Limit < end-start {
		end = start + req.Limit
	}

	st := s.sweeps.add(grid, start, end, req.Shard)
	out := newNDJSONWriter(w, st)
	emit := func(row core.Row) bool { return out.row(row, grid.Cursor(row.Index+1)) }
	src := grid.Source(sweep.Window{Start: start, End: end})
	complete := out.write(SweepHeader{
		SweepID:    st.status.ID,
		SpaceHash:  grid.Hash(),
		GridSize:   grid.Size(),
		Start:      start,
		End:        end,
		ShardIndex: st.status.ShardIndex,
		ShardCount: st.status.ShardCount,
	}) && s.root.WithParams(params).Stream(r.Context(), src, s.workers(req.Workers), emit)
	if complete {
		summary := st.summary()
		// A limited request that stopped short of its window end gets the
		// continuation cursor in the summary, so paginating clients need
		// not track per-row cursors. A completed shard window is done — its
		// summary carries no cursor even when the grid continues beyond it;
		// the next window belongs to another replica.
		if end < window.End {
			summary.NextCursor = grid.Cursor(end)
		}
		complete = out.write(summary)
	}
	st.finish(!complete)
}

// tooLarge rejects a sweep request covering more than MaxSpacePoints
// points, reporting whether it did.
func (s *Server) tooLarge(w http.ResponseWriter, points int64) bool {
	if points <= s.cfg.MaxSpacePoints {
		return false
	}
	writeError(w, http.StatusBadRequest, "sweep: request covers %d points, exceeding the limit of %d",
		points, s.cfg.MaxSpacePoints)
	return true
}

// workers clamps a sweep request's worker count to the server limit; zero
// means the limit.
func (s *Server) workers(requested int) int {
	if requested <= 0 || requested > s.cfg.MaxWorkers {
		return s.cfg.MaxWorkers
	}
	return requested
}

// ndjsonWriter streams one sweep response as NDJSON, flushing each line
// to the client as it is written, and notes the rows it delivers in the
// sweep's progress. After the first failed write (the client is gone) it
// writes nothing more.
type ndjsonWriter struct {
	enc     *json.Encoder
	flusher http.Flusher
	failed  bool
	st      *sweepState
}

func newNDJSONWriter(w http.ResponseWriter, st *sweepState) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &ndjsonWriter{enc: json.NewEncoder(w), flusher: flusher, st: st}
}

// write sends v as one line and reports whether the client received it.
func (nw *ndjsonWriter) write(v any) bool {
	if nw.failed {
		return false
	}
	if err := nw.enc.Encode(v); err != nil {
		nw.failed = true
		return false
	}
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
	return true
}

// row writes one evaluated point with its resume cursor, if any, and
// reports whether the client received it.
func (nw *ndjsonWriter) row(r core.Row, cursor string) bool {
	resp := runResponse(r.Outcome, r.Cached, r.Elapsed)
	if !nw.write(SweepLine{Seq: int(r.Index), Cursor: cursor, RunResponse: resp}) {
		return false
	}
	nw.st.note(resp.Error != "", resp.Cached)
	return true
}

// AppInfo is one entry of GET /v1/apps.
type AppInfo struct {
	Name          string `json:"name"`
	Qubits        int    `json:"qubits"`
	TwoQubitGates int    `json:"two_qubit_gates"`
	Pattern       string `json:"pattern"`
}

// SizedFamilyInfo documents one "<app>@<n>" family of GET /v1/apps.
type SizedFamilyInfo struct {
	Base       string `json:"base"`
	Constraint string `json:"constraint"`
}

// SizedInfo advertises the sized-benchmark name form of GET /v1/apps.
// Sizes violating a family constraint or the MaxQubits bound are rejected
// at request validation time with a 400.
type SizedInfo struct {
	Form      string            `json:"form"`
	MaxQubits int               `json:"max_qubits"`
	Families  []SizedFamilyInfo `json:"families"`
}

// AppsResponse is the body of GET /v1/apps: the paper-sized Table II
// suite plus the sized "<app>@<n>" form every endpoint accepts.
type AppsResponse struct {
	Apps  []AppInfo `json:"apps"`
	Sized SizedInfo `json:"sized"`
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	var list []AppInfo
	for _, spec := range apps.Suite() {
		list = append(list, AppInfo{
			Name:          spec.Name,
			Qubits:        spec.PaperQubits,
			TwoQubitGates: spec.PaperGate2Q,
			Pattern:       spec.PaperPattern,
		})
	}
	sized := SizedInfo{Form: "<app>@<n>", MaxQubits: apps.MaxSizedQubits}
	for _, fam := range apps.SizedForms() {
		sized.Families = append(sized.Families, SizedFamilyInfo{Base: fam.Base, Constraint: fam.Constraint})
	}
	writeJSON(w, http.StatusOK, AppsResponse{Apps: list, Sized: sized})
}

// TopologyFamily documents one device spec family of GET /v1/topologies:
// its grammar, its size constraints and its valid example specs. The
// response is generated from device.Families, so a row added to the
// device package's family table appears here without any service change.
type TopologyFamily struct {
	Name        string   `json:"name"`
	Form        string   `json:"form"`
	Description string   `json:"description"`
	Constraint  string   `json:"constraint"`
	Examples    []string `json:"examples,omitempty"`
}

// TopologyExample is a parsed example device.
type TopologyExample struct {
	Spec     string `json:"spec"`
	Capacity int    `json:"capacity"`
	Traps    int    `json:"traps"`
	MaxIons  int    `json:"max_ions"`
}

// TopologiesResponse is the body of GET /v1/topologies.
type TopologiesResponse struct {
	Families []TopologyFamily  `json:"families"`
	Examples []TopologyExample `json:"examples"`
}

func (s *Server) handleTopologies(w http.ResponseWriter, r *http.Request) {
	var resp TopologiesResponse
	const exampleCap = 22 // the paper's evaluated trap capacity
	for _, f := range device.Families() {
		resp.Families = append(resp.Families, TopologyFamily{
			Name:        f.Name,
			Form:        f.Form,
			Description: f.Description,
			Constraint:  f.Constraint,
			Examples:    f.Examples,
		})
		for _, spec := range f.Examples {
			d, err := device.Parse(spec, exampleCap)
			if err != nil {
				continue
			}
			resp.Examples = append(resp.Examples, TopologyExample{
				Spec: spec, Capacity: exampleCap, Traps: d.NumTraps(), MaxIons: d.MaxIons(),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// PoliciesResponse is the body of GET /v1/policies: every compiler
// policy, baseline first, each usable as a point's "policy" field or a
// sweep's "policies" axis value.
type PoliciesResponse struct {
	Policies []models.PolicyInfo `json:"policies"`
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, PoliciesResponse{Policies: models.Policies()})
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Params)
}

// Health is the body of GET /healthz. Cache is the in-memory front tier
// (the pre-persistence wire shape); Store is the full two-level picture
// including disk counters and the compute count.
type Health struct {
	Status    string           `json:"status"`
	UptimeS   float64          `json:"uptime_s"`
	GoVersion string           `json:"go_version"`
	Cache     cache.Stats      `json:"cache"`
	Store     cache.StoreStats `json:"store"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:    "ok",
		UptimeS:   time.Since(s.start).Seconds(),
		GoVersion: runtime.Version(),
		Cache:     s.outcomes.Stats(),
		Store:     s.outcomes.StoreStats(),
	})
}

// CacheResponse is the body of GET /v1/cache: full observability of the
// outcome store — memory hit/miss/evict, disk read/write/corrupt, and
// how many computations this process has actually run (zero on a warm
// replica re-serving known work).
type CacheResponse struct {
	Store cache.StoreStats `json:"store"`
	// Compiles counts the programs this process has compiled. A sweep
	// compiles once per compile group, so on a cold paper grid it is a
	// quarter of Store.Computes.
	Compiles uint64 `json:"compiles"`
	// Persistent reports whether a disk tier is mounted; Dir and
	// DiskMaxBytes echo its configuration.
	Persistent   bool   `json:"persistent"`
	Dir          string `json:"dir,omitempty"`
	DiskMaxBytes int64  `json:"disk_max_bytes,omitempty"`
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	resp := CacheResponse{Store: s.outcomes.StoreStats(), Compiles: s.root.Compiles()}
	if d := s.outcomes.Disk(); d != nil {
		resp.Persistent = true
		resp.Dir = d.Dir()
		resp.DiskMaxBytes = d.MaxBytes()
	}
	writeJSON(w, http.StatusOK, resp)
}

// CacheStats snapshots the in-memory front of the shared outcome cache.
func (s *Server) CacheStats() cache.Stats { return s.outcomes.Stats() }

// StoreStats snapshots every cache tier plus the compute counter.
func (s *Server) StoreStats() cache.StoreStats { return s.outcomes.StoreStats() }
