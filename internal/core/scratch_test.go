package core_test

import (
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// goldenPoints returns the points of the golden paper grid, then a point
// whose app does not fit its device, then the points of the golden
// beyond-paper grid, each grid in grammar order.
func goldenPoints(t *testing.T) []core.Point {
	t.Helper()
	beyond := sweep.Space{
		Apps:       []string{"QFT@64", "QAOA@64", "SquareRoot@64", "Surface@3", "Surface@5"},
		Topologies: []string{"L6", "G2x3", "G3x3", "M2x3", "R6", "Mod2:G2x2"},
		Capacities: []int{22},
		Gates:      []string{"AM2", "FM"},
		Policies:   []string{"baseline", "lookahead", "congestion"},
	}
	var pts []core.Point
	for k, space := range []sweep.Space{experiments.PaperSpace(), beyond} {
		grid, err := space.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < grid.Size(); i++ {
			pts = append(pts, grid.PointAt(i))
		}
		if k == 0 {
			pts = append(pts, core.Point{App: "QFT@64", Topology: "L2", Capacity: 14, Gate: models.FM})
		}
	}
	return pts
}

// compileKey is what a point's compile group shares: the point, gate
// zeroed.
func compileKey(pt core.Point) core.Point {
	pt.Gate = 0
	return pt
}

// reverseGroups returns pts with its compile groups in reverse order of
// first appearance, each group's points in their own order.
func reverseGroups(pts []core.Point) []core.Point {
	var keys []core.Point
	members := map[core.Point][]core.Point{}
	for _, pt := range pts {
		k := compileKey(pt)
		if members[k] == nil {
			keys = append(keys, k)
		}
		members[k] = append(members[k], pt)
	}
	slices.Reverse(keys)
	var out []core.Point
	for _, k := range keys {
		out = append(out, members[k]...)
	}
	return out
}

// freshOutcome is a point's outcome on fresh buffers: its Result encoded,
// from sim.Run on a program compiler.Compile gave, or its error text,
// from a fresh toolflow.
type freshOutcome struct {
	result []byte
	err    string
}

// freshOutcomes computes every point's fresh outcome, compiling each
// compile key once.
func freshOutcomes(t *testing.T, pts []core.Point) map[core.Point]freshOutcome {
	t.Helper()
	progs := map[core.Point]*sim.Prepared{}
	want := map[core.Point]freshOutcome{}
	for _, pt := range pts {
		k := compileKey(pt)
		pr, ok := progs[k]
		if !ok {
			pr = compileFresh(k)
			progs[k] = pr
		}
		if pr == nil {
			o := core.New(models.Default()).Run(pt)
			if o.Err == nil {
				t.Fatalf("%s: compiles in a toolflow only", pt)
			}
			want[pt] = freshOutcome{err: o.Err.Error()}
			continue
		}
		params := models.Default()
		params.Gate = pt.Gate
		res, err := pr.Run(params)
		if err != nil {
			t.Fatalf("%s: %v", pt, err)
		}
		if d, rounds, ok := apps.SurfaceSpec(pt.App); ok {
			res.AttachQEC(d, rounds)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want[pt] = freshOutcome{result: raw}
	}
	return want
}

// compileFresh compiles key's program on fresh buffers and prepares it,
// so that each gate sibling's run is its sim.Run; nil if any step fails.
func compileFresh(key core.Point) *sim.Prepared {
	c, err := apps.ByName(key.App)
	if err != nil {
		return nil
	}
	dev, err := device.Parse(key.Topology, key.Capacity)
	if err != nil {
		return nil
	}
	opts := compiler.DefaultOptions()
	opts.Reorder = key.Reorder
	opts.Policy = key.Policy
	prog, err := compiler.Compile(c, dev, opts)
	if err != nil {
		return nil
	}
	pr, err := sim.Prepare(prog, dev)
	if err != nil {
		return nil
	}
	return pr
}

// TestStreamReusedBuffersMatchFresh streams the golden paper and
// beyond-paper grids through one worker, whose groups all compile,
// prepare and simulate in its one scratch: first in grammar order, then
// with the compile groups reversed, so buffers pass from larger programs
// to smaller ones and back. A point whose app does not fit its device
// fails mid-stream. Every row must give the outcome fresh buffers give:
// its Result encodes exactly as sim.Run's on a freshly compiled program,
// and a failing row has a fresh toolflow's error. No compile key has
// points more than a compile group's span apart, so the stream compiles
// each key once.
func TestStreamReusedBuffersMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("both golden grids, twice; skipped in -short mode")
	}
	pts := goldenPoints(t)
	want := freshOutcomes(t, pts)
	keys := map[core.Point]bool{}
	for _, pt := range pts {
		keys[compileKey(pt)] = true
	}
	for _, order := range []struct {
		name string
		pts  []core.Point
	}{
		{"grammar", pts},
		{"reversed groups", reverseGroups(pts)},
	} {
		t.Run(order.name, func(t *testing.T) {
			tf := core.New(models.Default())
			failed := 0
			complete := tf.Stream(context.Background(), core.List(order.pts), 1, func(r core.Row) bool {
				pt := order.pts[r.Index]
				w, o := want[pt], r.Outcome
				if o.Err != nil {
					failed++
					if o.Err.Error() != w.err {
						t.Errorf("row %d %s: error %q, fresh %q", r.Index, pt, o.Err, w.err)
					}
					return true
				}
				got, err := json.Marshal(o.Result)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(w.result) {
					t.Errorf("row %d %s: result differs from fresh buffers'\n got %s\nwant %s", r.Index, pt, got, w.result)
				}
				return true
			})
			if !complete || failed != 1 {
				t.Errorf("complete = %v with %d failed rows, want every row and 1 failure", complete, failed)
			}
			if got := tf.Compiles(); got != uint64(len(keys)) {
				t.Errorf("%d compiles, want one per compile key, %d", got, len(keys))
			}
		})
	}
}

// TestSharedBuffersGiveFreshOutcomes evaluates points on one toolflow
// from four goroutines calling Do and one two-worker Stream at once, so
// every compile and run takes its buffers from the toolflow's one free
// list. The programs grow and shrink: BV@64, QFT@128 and Surface@5 on
// L8, G2x4 and Mod2:G2x2, each goroutine in its own order, plus QFT@64
// on L2 at capacity 14, which does not fit. The toolflow's cache holds
// one entry, so nearly every Do computes, and it panics on one point
// that only the stream evaluates. Every outcome must be the one fresh
// buffers give, the panicking row its panic's error, and afterwards the
// free list must hold at least one scratch and at most GOMAXPROCS.
func TestSharedBuffersGiveFreshOutcomes(t *testing.T) {
	var pts []core.Point
	for _, app := range []string{"BV@64", "QFT@128", "Surface@5"} {
		for _, topo := range []string{"L8", "G2x4", "Mod2:G2x2"} {
			for _, gate := range []models.GateImpl{models.AM2, models.FM} {
				pts = append(pts, core.Point{App: app, Topology: topo, Capacity: 22, Gate: gate})
			}
		}
	}
	pts = append(pts, core.Point{App: "QFT@64", Topology: "L2", Capacity: 14, Gate: models.FM})
	want := freshOutcomes(t, pts)
	// The panicking point is BV@64 on L8 under PM, a gate sibling of the
	// list's first two points.
	bad := core.Point{App: "BV@64", Topology: "L8", Capacity: 22, Gate: models.PM}
	streamed := append([]core.Point{bad}, pts...)
	params := models.Default()
	tf := core.NewWithCache(params, panicTier{Cache: cache.New[core.Outcome](1), key: core.CacheKey(bad, params)})

	check := func(who string, pt core.Point, o core.Outcome) {
		if pt == bad {
			if wantErr := bad.String() + ": panic: injected fault"; o.Err == nil || o.Err.Error() != wantErr {
				t.Errorf("%s %s: error %v, want %q", who, pt, o.Err, wantErr)
			}
			return
		}
		w := want[pt]
		if o.Err != nil {
			if o.Err.Error() != w.err {
				t.Errorf("%s %s: error %q, fresh %q", who, pt, o.Err, w.err)
			}
			return
		}
		got, err := json.Marshal(o.Result)
		if err != nil {
			t.Errorf("%s %s: %v", who, pt, err)
			return
		}
		if string(got) != string(w.result) {
			t.Errorf("%s %s: result differs from fresh buffers'\n got %s\nwant %s", who, pt, got, w.result)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range pts {
				i := (k + 5*w) % len(pts)
				if w%2 == 1 {
					i = len(pts) - 1 - i
				}
				o, _ := tf.Do(pts[i])
				check("Do", pts[i], o)
			}
		}()
	}
	rows := 0
	complete := tf.Stream(context.Background(), core.List(streamed), 2, func(r core.Row) bool {
		rows++
		check("Stream", streamed[r.Index], r.Outcome)
		return true
	})
	wg.Wait()
	if !complete || rows != len(streamed) {
		t.Errorf("stream complete = %v with %d of %d rows", complete, rows, len(streamed))
	}
	if n := core.FreeScratches(tf); n < 1 || n > runtime.GOMAXPROCS(0) {
		t.Errorf("free list holds %d scratches, want 1 to GOMAXPROCS (%d)", n, runtime.GOMAXPROCS(0))
	}
}
