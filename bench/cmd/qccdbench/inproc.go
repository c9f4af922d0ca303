package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
	"repro/internal/service"
	"repro/internal/sim"
)

// inproc answers a workload's requests inside the benchmark process with
// the daemon's own request handling: the service request and response
// types, the sweep grammar, and one core.Toolflow per calibration over one
// shared cache.Store, with the daemon's worker count. With a recorder it
// also times the calls into each layer's public functions.
type inproc struct {
	store *cache.Store[core.Outcome]
	rec   *recorder
	// openDisk is how long cache.OpenDisk took.
	openDisk time.Duration
	// parents maps a cache key to the span of the point being served, so
	// the cache.Store.Do span, opened inside the toolflow, nests under it.
	parents sync.Map
	points  atomic.Int64
	encoded atomic.Int64
	// sums, when set, makes the replay re-derive every point right after
	// computing it (see reconcile).
	sums *layerSums
	memo circuitMemo

	mu          sync.Mutex
	flows       map[string]*core.Toolflow
	computed    []computedPoint
	rederiveErr error
}

// computedPoint is one point the replay computed rather than read from a
// cache.
type computedPoint struct {
	params  models.Params
	outcome core.Outcome
	point   int
}

// spanRef names the span a point is served under.
type spanRef struct{ span, point int }

// newInproc mounts the store the workload's daemon would: a memory LRU of
// qccdd's default size, over the disk tier in dir for a seeded workload.
// With reconcile the replay re-derives each point it computes.
func newInproc(w *workload, dir string, rec *recorder, reconcile bool) (*inproc, error) {
	e := &inproc{
		rec:   rec,
		flows: make(map[string]*core.Toolflow),
		memo:  circuitMemo{circuits: make(map[string]*circuit.Circuit)},
	}
	if reconcile {
		e.sums = newLayerSums()
	}
	var disk *cache.Disk
	if w.seeded {
		var err error
		start := time.Now()
		disk, err = cache.OpenDisk(dir, 0)
		e.openDisk = time.Since(start)
		if err != nil {
			return nil, err
		}
	}
	e.store = cache.NewStore[core.Outcome](defaultCacheEntries, disk)
	return e, nil
}

// toolflowFor returns the toolflow of one calibration, as the daemon keys
// them. A traced toolflow reaches the store through tracedTier.
func (e *inproc) toolflowFor(p models.Params) *core.Toolflow {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := p.Hash()
	if tf, ok := e.flows[key]; ok {
		return tf
	}
	var tier cache.Tier[core.Outcome] = e.store
	if e.rec != nil {
		tier = &tracedTier{Store: e.store, e: e}
	}
	tf := core.NewWithCache(p, tier)
	e.flows[key] = tf
	return tf
}

// tracedTier records a cache.Store.Do span around each lookup and a
// core.compute child around each computation it triggers.
type tracedTier struct {
	*cache.Store[core.Outcome]
	e *inproc
}

func (t *tracedTier) Do(key string, compute func() (core.Outcome, error)) (core.Outcome, error, bool) {
	var ref spanRef
	if v, ok := t.e.parents.Load(key); ok {
		ref = v.(spanRef)
	}
	rec := t.e.rec
	s := rec.begin("cache.Store.Do", ref.span, ref.point)
	defer rec.end(s)
	return t.Store.Do(key, func() (core.Outcome, error) {
		c := rec.begin("core.compute", s, ref.point)
		defer rec.end(c)
		return compute()
	})
}

// decodeStrict decodes a request body the way the daemon does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// calibration resolves a request's optional params override against the
// daemon's default calibration.
func calibration(override *models.Params) (models.Params, error) {
	if override == nil {
		return models.Default(), nil
	}
	return *override, override.Validate()
}

// serve evaluates one point the way the daemon's handlers do, timing the
// toolflow call for the row's elapsed_us.
func (e *inproc) serve(tf *core.Toolflow, p models.Params, pt core.Point, ref spanRef) service.RunResponse {
	var key string
	if e.rec != nil {
		s := e.rec.begin("core.CacheKey", ref.span, ref.point)
		key = core.CacheKey(pt, p)
		e.rec.end(s)
	}
	start := time.Now()
	s := e.rec.begin("core.Toolflow.Do", ref.span, ref.point)
	if e.rec != nil {
		e.parents.Store(key, spanRef{span: s, point: ref.point})
	}
	o, cached := tf.Do(pt)
	e.rec.end(s)
	resp := service.RunResponse{Point: o.Point, Result: o.Result, Cached: cached, ElapsedUS: time.Since(start).Microseconds()}
	if o.Err != nil {
		resp.Error = o.Err.Error()
	}
	return resp
}

// reconcile re-derives a point this goroutine has just computed, so the
// layer calls meet the machine load and the contention the computation
// met a moment earlier. Points served from a cache are not re-derived.
func (e *inproc) reconcile(p models.Params, resp service.RunResponse, point int) {
	if e.sums == nil || resp.Cached || resp.Error != "" {
		return
	}
	c := computedPoint{params: p, outcome: core.Outcome{Point: resp.Point, Result: resp.Result}, point: point}
	l := newLayerSums()
	err := e.rederiveOne(l, c, e.rec, false)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.computed = append(e.computed, c)
	e.sums.add(l)
	if e.rederiveErr == nil {
		e.rederiveErr = err
	}
}

// sweep replays POST /v1/sweep for a grammar: the daemon's ordered
// engine, with a feeder handing indices to the workers and the emitter
// encoding rows in index order at most `workers` slots behind.
func (e *inproc) sweep(body []byte, onRow func(row)) error {
	var req service.SweepRequest
	s := e.rec.begin("service.decode", 0, 0)
	err := decodeStrict(body, &req)
	e.rec.end(s)
	if err != nil {
		return err
	}
	if req.Space == nil {
		return errors.New("in-process sweep: no space")
	}
	s = e.rec.begin("sweep.Compile", 0, 0)
	grid, err := req.Space.Compile()
	e.rec.end(s)
	if err != nil {
		return err
	}
	p, err := calibration(req.Params)
	if err != nil {
		return err
	}
	tf := e.toolflowFor(p)

	type slot struct {
		idx int64
		ref spanRef
		res chan service.RunResponse
	}
	workers := int(min(daemonWorkers, grid.Size()))
	order := make(chan *slot, workers)
	work := make(chan *slot)
	go func() {
		defer close(order)
		defer close(work)
		for i := int64(0); i < grid.Size(); i++ {
			sl := &slot{idx: i, ref: spanRef{point: int(e.points.Add(1))}, res: make(chan service.RunResponse, 1)}
			work <- sl
			order <- sl
		}
	}()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sl := range work {
				sl.ref.span = e.rec.begin("point", 0, sl.ref.point)
				s := e.rec.begin("sweep.PointAt", sl.ref.span, sl.ref.point)
				pt := grid.PointAt(sl.idx)
				e.rec.end(s)
				resp := e.serve(tf, p, pt, sl.ref)
				e.rec.end(sl.ref.span)
				sl.res <- resp
				e.reconcile(p, resp, sl.ref.point)
			}
		}()
	}
	var first error
	for sl := range order {
		resp := <-sl.res
		s := e.rec.begin("sweep.Cursor", 0, sl.ref.point)
		cursor := grid.Cursor(sl.idx + 1)
		e.rec.end(s)
		s = e.rec.begin("service.encode", 0, sl.ref.point)
		line, err := json.Marshal(service.SweepLine{Seq: int(sl.idx), Cursor: cursor, RunResponse: resp})
		e.rec.end(s)
		if err == nil {
			e.encoded.Add(int64(len(line)) + 1) // the daemon ends each row with a newline
			var r row
			if r, err = parseRow(line); err == nil {
				onRow(r)
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	wg.Wait()
	return first
}

// run replays POST /v1/run.
func (e *inproc) run(body []byte) (row, error) {
	ref := spanRef{point: int(e.points.Add(1))}
	ref.span = e.rec.begin("request", 0, ref.point)
	var req service.RunRequest
	s := e.rec.begin("service.decode", ref.span, ref.point)
	err := decodeStrict(body, &req)
	e.rec.end(s)
	if err != nil {
		return row{}, err
	}
	s = e.rec.begin("core.Point.Validate", ref.span, ref.point)
	err = req.Point.Validate()
	e.rec.end(s)
	if err != nil {
		return row{}, err
	}
	p, err := calibration(req.Params)
	if err != nil {
		return row{}, err
	}
	resp := e.serve(e.toolflowFor(p), p, req.Point, ref)
	s = e.rec.begin("service.encode", ref.span, ref.point)
	line, err := json.Marshal(resp)
	e.rec.end(s)
	e.rec.end(ref.span)
	e.reconcile(p, resp, ref.point)
	if err != nil {
		return row{}, err
	}
	e.encoded.Add(int64(len(line)) + 1)
	return parseRow(line)
}

// layerSums is what re-deriving the computed points measured, per layer.
type layerSums struct {
	// byName counts circuit builds; its time also covers a worker waiting
	// for the other worker's build of the same circuit, as a toolflow
	// computation does.
	byName, parse, compile, simRun, qec layerTime
	compileByPolicy                     map[string]int64 // ns
	simByFamily                         map[string]int64 // ns
	compileAllocs, simAllocs            uint64
	ops                                 int64
}

func newLayerSums() *layerSums {
	return &layerSums{compileByPolicy: map[string]int64{}, simByFamily: map[string]int64{}}
}

// total is the summed time of every re-derived layer call.
func (l *layerSums) total() int64 {
	return l.byName.selfNS + l.parse.selfNS + l.compile.selfNS + l.simRun.selfNS + l.qec.selfNS
}

func (l *layerSums) add(o *layerSums) {
	for _, p := range [][2]*layerTime{{&l.byName, &o.byName}, {&l.parse, &o.parse},
		{&l.compile, &o.compile}, {&l.simRun, &o.simRun}, {&l.qec, &o.qec}} {
		p[0].calls += p[1].calls
		p[0].selfNS += p[1].selfNS
	}
	for k, v := range o.compileByPolicy {
		l.compileByPolicy[k] += v
	}
	for k, v := range o.simByFamily {
		l.simByFamily[k] += v
	}
	l.compileAllocs += o.compileAllocs
	l.simAllocs += o.simAllocs
	l.ops += o.ops
}

// circuitMemo holds built circuits per calibration and app. Like a
// toolflow's memo it builds under its lock, so a second caller waits for
// the first caller's build.
type circuitMemo struct {
	mu       sync.Mutex
	circuits map[string]*circuit.Circuit
}

func (m *circuitMemo) get(p models.Params, app string) (c *circuit.Circuit, built bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := p.Hash() + "/" + app
	if c, ok := m.circuits[key]; ok {
		return c, false, nil
	}
	if c, err = apps.ByName(app); err == nil {
		m.circuits[key] = c
	}
	return c, true, err
}

// countAllocs re-derives every computed point once more, serially, and
// counts the allocations of the compile and simulate calls from
// runtime.MemStats deltas, which only a lone goroutine can attribute.
func (e *inproc) countAllocs() (compile, simulate uint64, err error) {
	l := newLayerSums()
	for _, c := range e.computed {
		if err := e.rederiveOne(l, c, nil, true); err != nil {
			return 0, 0, err
		}
	}
	return l.compileAllocs, l.simAllocs, nil
}

// rederiveOne recomputes one computed point through the layers' public
// functions, apps.ByName (memoized like a toolflow's circuits),
// device.Parse, compiler.Compile, sim.Run and, for Surface codes,
// AttachQEC, timing each call into l and recording spans in rec. The
// result must equal the toolflow's byte for byte. With countAllocs it
// also counts the compile and simulate allocations.
func (e *inproc) rederiveOne(l *layerSums, c computedPoint, rec *recorder, countAllocs bool) error {
	pt := c.outcome.Point
	if c.outcome.Err != nil {
		return nil // a failed point is counted by the checks, not re-derived
	}
	var before, after runtime.MemStats
	readMem := func(m *runtime.MemStats) {
		if countAllocs {
			runtime.ReadMemStats(m)
		}
	}
	root := rec.begin("rederive", 0, c.point)
	defer rec.end(root)
	timed := func(lt *layerTime, name string, f func()) int64 {
		start := time.Now()
		s := rec.begin(name, root, c.point)
		f()
		rec.end(s)
		ns := time.Since(start).Nanoseconds()
		lt.calls++
		lt.selfNS += ns
		return ns
	}

	var (
		circ  *circuit.Circuit
		built bool
		err   error
	)
	start := time.Now()
	s := rec.begin("apps.ByName", root, c.point)
	circ, built, err = e.memo.get(c.params, pt.App)
	rec.end(s)
	if err != nil {
		return err
	}
	if built {
		l.byName.calls++
	}
	l.byName.selfNS += time.Since(start).Nanoseconds()

	var dev *device.Device
	timed(&l.parse, "device.Parse", func() { dev, err = device.Parse(pt.Topology, pt.Capacity) })
	if err != nil {
		return err
	}
	opts := compiler.DefaultOptions()
	opts.Reorder = pt.Reorder
	opts.Policy = pt.Policy
	var prog *isa.Program
	readMem(&before)
	ns := timed(&l.compile, "compiler.Compile", func() { prog, err = compiler.Compile(circ, dev, opts) })
	readMem(&after)
	if err != nil {
		return err
	}
	l.compileAllocs += after.Mallocs - before.Mallocs
	l.compileByPolicy[pt.Policy.String()] += ns
	l.ops += int64(len(prog.Ops))

	params := c.params
	params.Gate = pt.Gate
	var res *sim.Result
	readMem(&before)
	ns = timed(&l.simRun, "sim.Run", func() { res, err = sim.Run(prog, dev, params) })
	readMem(&after)
	if err != nil {
		return err
	}
	l.simAllocs += after.Mallocs - before.Mallocs
	l.simByFamily[familyOf(pt.Topology)] += ns
	if d, rounds, ok := apps.SurfaceSpec(pt.App); ok {
		timed(&l.qec, "sim.AttachQEC", func() { res.AttachQEC(d, rounds) })
	}

	got, err1 := json.Marshal(res)
	want, err2 := json.Marshal(c.outcome.Result)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("re-derived %s differs from the toolflow's result", pt)
	}
	return nil
}

// familyOf names a topology's family as the per-layer metrics split
// them: grids with three or more rows apart from two-row grids, and
// multi-module devices as "mod".
func familyOf(spec string) string {
	f, _ := device.MatchFamily(spec)
	switch f.Name {
	case "multimodule":
		return "mod"
	case "grid":
		var rows, cols int
		if _, err := fmt.Sscanf(spec, "G%dx%d", &rows, &cols); err == nil && rows >= 3 {
			return "grid3"
		}
	}
	return f.Name
}
