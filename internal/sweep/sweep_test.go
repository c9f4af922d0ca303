package sweep

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

func testSpace() Space {
	return Space{
		Apps:       []string{"BV", "QFT@8", "QAOA"},
		Topologies: []string{"L2", "G2x3"},
		Capacities: []int{14, 18, 22},
		Gates:      []string{"FM", "AM1"},
		Reorders:   []string{"GS", "IS"},
		Policies:   []string{"baseline", "lookahead"},
	}
}

func compile(t *testing.T, s Space) *Grid {
	t.Helper()
	g, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// expand materializes the whole grid through PointAt — only tests may do
// this; production code streams by index.
func expand(g *Grid) []core.Point {
	pts := make([]core.Point, g.Size())
	for i := range pts {
		pts[i] = g.PointAt(int64(i))
	}
	return pts
}

func TestExpansionMatchesNestedLoops(t *testing.T) {
	s := testSpace()
	g := compile(t, s)
	if g.Size() != 3*2*3*2*2*2 {
		t.Fatalf("size = %d, want %d", g.Size(), 3*2*3*2*2*2)
	}
	// Reference expansion: the documented nesting, policy fastest.
	var want []core.Point
	for _, app := range s.Apps {
		for _, topo := range s.Topologies {
			for _, capacity := range s.Capacities {
				for _, gate := range []models.GateImpl{models.FM, models.AM1} {
					for _, reorder := range []models.ReorderMethod{models.GS, models.IS} {
						for _, policy := range []models.PolicyName{"", "lookahead"} {
							want = append(want, core.Point{
								App: app, Topology: topo, Capacity: capacity,
								Gate: gate, Reorder: reorder, Policy: policy,
							})
						}
					}
				}
			}
		}
	}
	got := expand(g)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestExpansionOrderIsStableAndDistinct(t *testing.T) {
	a := expand(compile(t, testSpace()))
	b := expand(compile(t, testSpace()))
	seen := make(map[string]bool, len(a))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expansion order unstable at %d: %+v vs %+v", i, a[i], b[i])
		}
		key := a[i].String()
		if seen[key] {
			t.Fatalf("duplicate point %s in expansion", key)
		}
		seen[key] = true
	}
}

func TestDefaultsAreFMGSAndHashInsensitiveToSpelling(t *testing.T) {
	explicit := testSpace()
	explicit.Gates = []string{"fm"}
	explicit.Reorders = []string{"gs"}
	explicit.Policies = []string{"BASELINE"}
	defaulted := testSpace()
	defaulted.Gates = nil
	defaulted.Reorders = nil
	defaulted.Policies = nil

	ge := compile(t, explicit)
	gd := compile(t, defaulted)
	if ge.Hash() != gd.Hash() {
		t.Error("spelled-out lowercase defaults must hash like omitted defaults")
	}
	pt := gd.PointAt(0)
	if pt.Gate != models.FM || pt.Reorder != models.GS || !pt.Policy.IsBaseline() {
		t.Errorf("defaults = %s-%s/%s, want FM-GS/baseline", pt.Gate, pt.Reorder, pt.Policy)
	}
}

func TestHashChangesWithAnyAxis(t *testing.T) {
	base := compile(t, testSpace()).Hash()
	mutate := []func(*Space){
		func(s *Space) { s.Apps = append(s.Apps, "Adder") },
		func(s *Space) { s.Apps[0], s.Apps[1] = s.Apps[1], s.Apps[0] },
		func(s *Space) { s.Topologies = []string{"L2"} },
		func(s *Space) { s.Capacities = []int{14, 18, 26} },
		func(s *Space) { s.Gates = []string{"FM"} },
		func(s *Space) { s.Reorders = []string{"IS", "GS"} },
		func(s *Space) { s.Policies = []string{"baseline"} },
		func(s *Space) { s.Policies = []string{"lookahead", "baseline"} },
	}
	for i, m := range mutate {
		s := testSpace()
		m(&s)
		if compile(t, s).Hash() == base {
			t.Errorf("mutation %d did not change the space hash", i)
		}
	}
}

func TestCursorRoundTrip(t *testing.T) {
	g := compile(t, testSpace())
	for _, next := range []int64{0, 1, g.Size() / 2, g.Size() - 1, g.Size()} {
		cur := g.Cursor(next)
		got, err := g.Resume(cur)
		if err != nil {
			t.Fatalf("Resume(Cursor(%d)): %v", next, err)
		}
		if got != next {
			t.Errorf("cursor round trip: %d -> %d", next, got)
		}
	}
}

func TestCursorRejections(t *testing.T) {
	g := compile(t, testSpace())

	other := testSpace()
	other.Capacities = []int{14, 18, 26}
	foreign := compile(t, other).Cursor(2)
	if _, err := g.Resume(foreign); err == nil || !strings.Contains(err.Error(), "different design space") {
		t.Errorf("foreign cursor: err = %v", err)
	}

	for _, bad := range []string{
		"",
		"not base64!!",
		"bm9wZQ", // valid base64, wrong payload
		compile(t, testSpace()).Cursor(0) + "x",
	} {
		if _, err := g.Resume(bad); err == nil {
			t.Errorf("cursor %q should be rejected", bad)
		}
	}

	// An in-range index for a bigger grid must be out of range here.
	small := Space{Apps: []string{"BV"}, Topologies: []string{"L2"}, Capacities: []int{14}}
	sg := compile(t, small)
	big := compile(t, testSpace())
	// Forge a cursor with the small grid's identity but a huge index by
	// minting from the small grid's own codec.
	if sg.Size() != 1 {
		t.Fatal("small grid should have one point")
	}
	_ = big
	if _, err := sg.Resume(sg.Cursor(1)); err != nil {
		t.Errorf("index == size is the done cursor, must resume (to zero rows): %v", err)
	}
}

// TestResumePartitionsExpansion is the no-skip/no-duplicate property: for
// any split index k, rows [0,k) plus a resume from Cursor(k) cover the
// grid exactly once.
func TestResumePartitionsExpansion(t *testing.T) {
	g := compile(t, testSpace())
	full := expand(g)
	rng := rand.New(rand.NewSource(1))
	splits := []int64{0, 1, g.Size() - 1, g.Size()}
	for i := 0; i < 10; i++ {
		splits = append(splits, rng.Int63n(g.Size()+1))
	}
	for _, k := range splits {
		next, err := g.Resume(g.Cursor(k))
		if err != nil {
			t.Fatalf("split %d: %v", k, err)
		}
		var joined []core.Point
		for i := int64(0); i < k; i++ {
			joined = append(joined, g.PointAt(i))
		}
		for i := next; i < g.Size(); i++ {
			joined = append(joined, g.PointAt(i))
		}
		if int64(len(joined)) != g.Size() {
			t.Fatalf("split %d: %d points, want %d", k, len(joined), g.Size())
		}
		for i := range joined {
			if joined[i] != full[i] {
				t.Fatalf("split %d: point %d = %+v, want %+v", k, i, joined[i], full[i])
			}
		}
	}
}

func TestDegenerateSpacesRejected(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Space)
	}{
		{"no apps", func(s *Space) { s.Apps = nil }},
		{"no topologies", func(s *Space) { s.Topologies = nil }},
		{"no capacities", func(s *Space) { s.Capacities = nil }},
		{"unknown app", func(s *Space) { s.Apps = []string{"Nope"} }},
		{"bad sized app size", func(s *Space) { s.Apps = []string{"QAOA@1"} }},
		{"oversized app", func(s *Space) { s.Apps = []string{"QFT@99999"} }},
		{"malformed sized app", func(s *Space) { s.Apps = []string{"QFT@x"} }},
		{"duplicate app", func(s *Space) { s.Apps = []string{"BV", "bv"} }},
		{"bad topology", func(s *Space) { s.Topologies = []string{"T9"} }},
		{"duplicate topology", func(s *Space) { s.Topologies = []string{"L2", "l2"} }},
		{"zero capacity", func(s *Space) { s.Capacities = []int{0} }},
		{"negative capacity", func(s *Space) { s.Capacities = []int{-4} }},
		{"duplicate capacity", func(s *Space) { s.Capacities = []int{14, 14} }},
		{"bad gate", func(s *Space) { s.Gates = []string{"ZZ"} }},
		{"duplicate gate", func(s *Space) { s.Gates = []string{"FM", "fm"} }},
		{"bad reorder", func(s *Space) { s.Reorders = []string{"XX"} }},
		{"duplicate reorder", func(s *Space) { s.Reorders = []string{"GS", "gs"} }},
		{"bad policy", func(s *Space) { s.Policies = []string{"nope"} }},
		{"duplicate policy", func(s *Space) { s.Policies = []string{"baseline", "BASELINE"} }},
		{"duplicate policy via empty alias", func(s *Space) { s.Policies = []string{"", "baseline"} }},
	}
	for _, tc := range cases {
		s := testSpace()
		tc.mutate(&s)
		if _, err := s.Compile(); err == nil {
			t.Errorf("%s: Compile should fail", tc.name)
		}
	}
}

func TestPointAtOutOfRangePanics(t *testing.T) {
	g := compile(t, testSpace())
	for _, i := range []int64{-1, g.Size()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PointAt(%d) should panic", i)
				}
			}()
			g.PointAt(i)
		}()
	}
}

func TestMul64Overflow(t *testing.T) {
	if _, ok := mul64(1<<40, 1<<40); ok {
		t.Error("2^80 should overflow")
	}
	if p, ok := mul64(1<<31, 1<<31); !ok || p != 1<<62 {
		t.Errorf("2^62 = %d, %v", p, ok)
	}
	if p, ok := mul64(0, 1<<62); !ok || p != 0 {
		t.Errorf("0 mul = %d, %v", p, ok)
	}
}

// TestLargeGridIsLazy compiles a grammar far beyond any materialized
// request limit and touches single points across it: expansion cost must
// be per-point, never proportional to the grid.
func TestLargeGridIsLazy(t *testing.T) {
	caps := make([]int, 5000)
	for i := range caps {
		caps[i] = i + 2
	}
	s := Space{
		Apps:       []string{"BV", "QFT", "QAOA", "Adder", "SquareRoot", "Supremacy"},
		Topologies: []string{"L2", "L4", "L6", "G2x3", "G2x6", "R6"},
		Capacities: caps,
		Gates:      []string{"AM1", "AM2", "PM", "FM"},
		Reorders:   []string{"GS", "IS"},
	}
	g := compile(t, s)
	want := int64(6 * 6 * 5000 * 4 * 2) // 1.44M points, never materialized
	if g.Size() != want {
		t.Fatalf("size = %d, want %d", g.Size(), want)
	}
	first := g.PointAt(0)
	last := g.PointAt(g.Size() - 1)
	if first.App != "BV" || first.Topology != "L2" || first.Capacity != 2 {
		t.Errorf("first point = %+v", first)
	}
	if last.App != "Supremacy" || last.Topology != "R6" || last.Capacity != 5001 ||
		last.Gate != models.FM || last.Reorder != models.IS {
		t.Errorf("last point = %+v", last)
	}
	if _, err := g.Resume(g.Cursor(want / 2)); err != nil {
		t.Errorf("mid-grid cursor: %v", err)
	}
}
