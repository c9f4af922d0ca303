// Package core implements the paper's primary contribution: the design
// toolflow of Figure 3. A Toolflow takes a candidate QCCD architecture
// (topology spec, trap capacity, gate implementation, reordering method),
// a NISQ application, and the physical performance models, runs the
// backend compiler and the discrete-event simulator, and returns the
// application metrics (run time, reliability) and device metrics (heating
// rates, shuttling activity) that drive the architectural study.
//
// The Toolflow caches benchmark circuits and evaluates independent design
// points concurrently, which is what makes the full Figure 6-8 parameter
// sweeps (hundreds of compile+simulate runs) complete in seconds.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
	"repro/internal/sim"
)

// Point identifies one design point: an application on a device
// configuration under one microarchitecture. On the wire, enums travel as
// their paper names so requests are hand-writable.
type Point struct {
	// App names a Table II benchmark (see internal/apps).
	App string `json:"app"`
	// Topology is a device spec such as "L6" or "G2x3".
	Topology string `json:"topology"`
	// Capacity is the per-trap ion limit.
	Capacity int `json:"capacity"`
	// Gate selects the two-qubit MS implementation.
	Gate models.GateImpl `json:"gate"`
	// Reorder selects the chain reordering method.
	Reorder models.ReorderMethod `json:"reorder"`
	// Policy selects the compiler policy. The zero value is the baseline
	// (the paper's heuristics): a zero-policy Point is identical — in
	// struct equality, String, wire format and cache key — to a Point from
	// before the policy axis existed. Every spelling of one policy renders
	// and hashes as its canonical name (see models.PolicyName.String).
	Policy models.PolicyName `json:"policy,omitempty"`
}

// String renders the point compactly, e.g. "QFT/L6/cap22/FM-GS"; a
// non-baseline policy appends a segment, e.g. ".../FM-GS/lookahead".
func (p Point) String() string {
	s := fmt.Sprintf("%s/%s/cap%d/%s-%s", p.App, p.Topology, p.Capacity, p.Gate, p.Reorder)
	if !p.Policy.IsBaseline() {
		s += "/" + p.Policy.String()
	}
	return s
}

// Outcome pairs a design point with its simulation result or error.
type Outcome struct {
	Point  Point
	Result *sim.Result
	Err    error
}

// Toolflow executes design points with cached circuits and, optionally, a
// content-addressed outcome cache. It is safe for concurrent use after
// construction.
type Toolflow struct {
	base models.Params
	// baseHash content-addresses the physical parameters once (with Gate
	// normalized away, since each point's gate overrides it) so per-point
	// cache keys only hash the point itself.
	baseHash string
	// outcomes is any cache tier: the in-memory LRU, or a two-level
	// persistent store shared across processes (cache.Store).
	outcomes cache.Tier[Outcome]
	// shared is common to every toolflow derived with WithParams.
	shared *shared
}

// shared is the calibration-independent state of a family of toolflows.
type shared struct {
	// circuits memoizes benchmark circuits by app name, each with its
	// compiler.Analysis, which every compile of the circuit shares. Builds
	// are single-flight per name, so one app's build never holds up
	// lookups of another's.
	circuits *cache.Cache[*compiler.Analysis]
	// compiles counts compiler.Compile calls.
	compiles atomic.Uint64
}

// New returns a toolflow whose physical parameters default to base (the
// per-point gate implementation overrides base.Gate). Every design point
// is computed from scratch; use NewCached or NewWithCache to reuse
// outcomes across sweeps.
func New(base models.Params) *Toolflow {
	return &Toolflow{base: base, shared: &shared{circuits: cache.New[*compiler.Analysis](0)}}
}

// NewCached returns a toolflow backed by a fresh outcome cache holding at
// most entries results (entries <= 0 means unbounded).
func NewCached(base models.Params, entries int) *Toolflow {
	return NewWithCache(base, cache.New[Outcome](entries))
}

// NewWithCache returns a toolflow backed by any cache tier c — a plain
// in-memory cache.Cache or a persistent two-level cache.Store — which may
// be shared with other toolflows and, for a disk-backed store, with other
// processes (the cache key covers both point and parameters, so toolflows
// under different calibrations cannot cross-talk).
func NewWithCache(base models.Params, c cache.Tier[Outcome]) *Toolflow {
	tf := New(base)
	tf.outcomes = c
	tf.baseHash = paramsHash(base)
	return tf
}

// WithParams returns a toolflow for calibration p that shares tf's
// outcome cache, circuit memo and compile counter.
func (tf *Toolflow) WithParams(p models.Params) *Toolflow {
	return &Toolflow{base: p, baseHash: paramsHash(p), outcomes: tf.outcomes, shared: tf.shared}
}

// Params returns the toolflow's base physical parameters.
func (tf *Toolflow) Params() models.Params { return tf.base }

// CacheStats snapshots the outcome cache counters; the zero Stats for an
// uncached toolflow.
func (tf *Toolflow) CacheStats() cache.Stats {
	if tf.outcomes == nil {
		return cache.Stats{}
	}
	return tf.outcomes.Stats()
}

// Compiles reports how many programs tf and the toolflows derived from it
// with WithParams have compiled.
func (tf *Toolflow) Compiles() uint64 { return tf.shared.compiles.Load() }

// circuitFor builds or fetches the memoized circuit for an app name,
// analysed for the compiler.
func (tf *Toolflow) circuitFor(app string) (*compiler.Analysis, error) {
	a, err, _ := tf.shared.circuits.Do(app, func() (*compiler.Analysis, error) {
		c, err := apps.ByName(app)
		if err != nil {
			return nil, err
		}
		return compiler.Analyze(c), nil
	})
	return a, err
}

// Run executes a single design point: build device, compile, simulate.
// With an outcome cache attached, a previously computed point is returned
// without recomputation and identical in-flight points are computed once.
func (tf *Toolflow) Run(pt Point) Outcome {
	o, _ := tf.Do(pt)
	return o
}

// Do is Run plus a report of whether the outcome was served from the
// cache (or an in-flight duplicate) instead of computed by this call. It
// is the one-point case of a Group.
func (tf *Toolflow) Do(pt Point) (Outcome, bool) {
	return tf.NewGroup().Do(pt)
}

// Group evaluates design points that differ only in their gate
// implementation. The gate enters only the simulator, so such points
// share one compiled program: a Group compiles and prepares it
// (sim.Prepare) for the first point that misses the outcome cache and
// simulates every later point from it.
// A point with another program replaces the held one, so any sequence of
// points evaluates correctly. The program lives only as long as the
// Group, which is not safe for concurrent use.
//
// Buffers: the held program's op list and each run's per-op arrays come
// from the group's scratch. Compiling the next program overwrites the op
// list, so neither the held program nor its sim.Prepared may be used
// after it. A Stream worker hands one scratch to every group it
// evaluates, so it holds at most its largest program's buffers, until
// the stream ends; NewGroup, and so Toolflow.Do, starts a fresh one. No
// Outcome holds any of them.
type Group struct {
	tf   *Toolflow
	held *program
	buf  *scratch
}

// scratch is the storage a group compiles and simulates in: the op list
// compiler.CompileInto emits into and a sim.Scratch for each run's per-op
// arrays.
type scratch struct {
	ops []isa.Op
	sim sim.Scratch
}

// program is what a group's points share: the compiled program of one
// (app, topology, capacity, reorder, policy), prepared for simulation on
// its device, or the error building it gave.
type program struct {
	key      Point // the points' shared fields, Gate zeroed
	prepared *sim.Prepared
	// err is a circuit or device error, reported as is; compileErr is a
	// compiler or sim.Prepare error, which each point wraps with its own
	// name.
	err, compileErr error
}

// NewGroup returns a Group over tf holding no program and no buffers yet.
func (tf *Toolflow) NewGroup() *Group { return &Group{tf: tf, buf: new(scratch)} }

// Do evaluates pt as Toolflow.Do does, through the outcome cache under
// pt's own key, compiling only if pt misses the cache and the group holds
// no program for it. A panic while evaluating pt becomes pt's error
// outcome, which the cache never stores: one bad design point must not
// take down a sweep, or the daemon whose goroutine evaluates it.
func (g *Group) Do(pt Point) (o Outcome, hit bool) {
	defer func() {
		if v := recover(); v != nil {
			o, hit = Outcome{Point: pt, Err: fmt.Errorf("%s: panic: %v", pt, v)}, false
		}
	}()
	tf := g.tf
	if tf.outcomes == nil {
		return g.compute(pt), false
	}
	o, err, hit := tf.outcomes.Do(cacheKey(pt, tf.baseHash), func() (Outcome, error) {
		o := g.compute(pt)
		// A failed outcome is returned to every waiter but never stored,
		// so transient failures do not poison the cache.
		return o, o.Err
	})
	if err != nil {
		return Outcome{Point: pt, Err: err}, hit
	}
	return o, hit
}

// compute executes the point uncached: simulate it on the group's
// prepared program, compiling and preparing that first if the group does
// not hold it.
func (g *Group) compute(pt Point) Outcome {
	key := pt
	key.Gate = 0
	if g.held == nil || g.held.key != key {
		// Compiling overwrites the held program's buffers: drop it first,
		// so a compile that panics leaves no program over them.
		g.held = nil
		g.held = g.tf.compile(key, g.buf)
	}
	p := g.held
	if p.err != nil {
		return Outcome{Point: pt, Err: p.err}
	}
	if p.compileErr != nil {
		return Outcome{Point: pt, Err: fmt.Errorf("%s: %w", pt, p.compileErr)}
	}
	params := g.tf.base
	params.Gate = pt.Gate
	res, err := g.buf.sim.Run(p.prepared, params)
	if err != nil {
		return Outcome{Point: pt, Err: fmt.Errorf("%s: %w", pt, err)}
	}
	// QEC workloads additionally report a logical-error estimate derived
	// from the simulated physical fidelity. Non-QEC results never carry
	// the fields (omitempty), so the golden wire format is unchanged.
	if d, rounds, ok := apps.SurfaceSpec(pt.App); ok {
		res.AttachQEC(d, rounds)
	}
	return Outcome{Point: pt, Result: res}
}

// compile builds the circuit and device of key, compiles the program and
// prepares it for simulation, emitting into buf's op list. Each input is
// checked once: the circuit by the builder that made it, the device by
// device.Parse and the program by sim.Prepare, so the compile itself
// (compiler.CompileInto) checks none of them again.
func (tf *Toolflow) compile(key Point, buf *scratch) *program {
	p := &program{key: key}
	a, err := tf.circuitFor(key.App)
	if err != nil {
		p.err = err
		return p
	}
	dev, err := device.Parse(key.Topology, key.Capacity)
	if err != nil {
		p.err = err
		return p
	}
	opts := compiler.DefaultOptions()
	opts.Reorder = key.Reorder
	opts.Policy = key.Policy
	tf.shared.compiles.Add(1)
	prog, err := compiler.CompileInto(buf.ops, a, dev, opts)
	if err != nil {
		p.compileErr = err
		return p
	}
	buf.ops = prog.Ops
	p.prepared, p.compileErr = sim.Prepare(prog, dev)
	return p
}

// Sweep streams points as a List on up to GOMAXPROCS workers, so gate
// siblings near each other in the list compile once (see Stream); it
// returns the outcomes in input order.
func (tf *Toolflow) Sweep(points []Point) []Outcome {
	out := make([]Outcome, 0, len(points))
	tf.Stream(context.Background(), List(points), runtime.GOMAXPROCS(0), func(r Row) bool {
		out = append(out, r.Outcome)
		return true
	})
	return out
}
