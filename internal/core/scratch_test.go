package core_test

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/apps"
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

// listSource streams pts, each compile group being a point and the later
// points of its compile key.
func listSource(pts []core.Point) core.Source {
	src := core.Source{
		End:   int64(len(pts)),
		Point: func(i int64) core.Point { return pts[i] },
		Group: func(i int64) []int64 {
			var group []int64
			for j := i; j < int64(len(pts)); j++ {
				if compileKey(pts[j]) == compileKey(pts[i]) {
					group = append(group, j)
				}
			}
			return group
		},
	}
	width := map[core.Point]int{}
	for _, pt := range pts {
		width[compileKey(pt)]++
		src.Width = max(src.Width, width[compileKey(pt)])
	}
	return src
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
// and a failing row has a fresh toolflow's error.
func TestStreamReusedBuffersMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("both golden grids, twice; skipped in -short mode")
	}
	pts := goldenPoints(t)
	want := freshOutcomes(t, pts)
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
			complete := tf.Stream(context.Background(), listSource(order.pts), 1, func(r core.Row) bool {
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
		})
	}
}
