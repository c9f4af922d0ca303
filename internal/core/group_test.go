package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sweep"
)

// Axis values the group properties draw from. The enumerated axes are
// the models tables, so a new gate, reorder method or policy row is drawn
// too.
var (
	propApps     = []string{"BV", "QFT"}
	propTopos    = []string{"L6", "G2x3"}
	propCaps     = []int{14, 18}
	propGates    = models.GateImpls()
	propReorders = models.ReorderMethods()
	propPolicies = func() []models.PolicyName {
		var names []models.PolicyName
		for _, p := range models.Policies() {
			name, err := models.ParsePolicy(p.Name)
			if err != nil {
				panic(err)
			}
			names = append(names, name)
		}
		return names
	}()
)

// pointOf decodes one byte, mixed-radix, into a point over the property
// axes.
func pointOf(b byte) core.Point {
	v := int(b)
	digit := func(n int) int {
		d := v % n
		v /= n
		return d
	}
	return core.Point{
		App:      propApps[digit(len(propApps))],
		Topology: propTopos[digit(len(propTopos))],
		Capacity: propCaps[digit(len(propCaps))],
		Gate:     propGates[digit(len(propGates))],
		Reorder:  propReorders[digit(len(propReorders))],
		Policy:   propPolicies[digit(len(propPolicies))],
	}
}

// listOf decodes bytes into a points list. With few set, every point has
// one capacity and policy, so same-key points recur both inside and
// beyond the span.
func listOf(b []byte, few bool) []core.Point {
	points := make([]core.Point, len(b))
	for i, c := range b {
		points[i] = pointOf(c)
		if few {
			points[i].Capacity, points[i].Policy = propCaps[0], propPolicies[0]
		}
	}
	return points
}

// grammarOf decodes six bytes into a grammar over the property axes: a
// non-empty subset of each axis, with the enumerated axes in a rotated
// order.
func grammarOf(b []byte) sweep.Space {
	pick := func(vals []string, mask, rot byte) []string {
		var out []string
		for i := range vals {
			if mask>>i&1 == 1 {
				out = append(out, vals[(i+int(rot))%len(vals)])
			}
		}
		if len(out) == 0 {
			out = vals[:1]
		}
		return out
	}
	s := sweep.Space{
		Apps:       pick(propApps, b[0], 0),
		Topologies: pick(propTopos, b[1], 0),
		Gates:      pick(names(propGates), b[3], b[3]>>4),
		Reorders:   pick(names(propReorders), b[4], b[4]>>4),
		Policies:   pick(names(propPolicies), b[5], b[5]>>4),
	}
	for i, c := range propCaps {
		if b[2]>>i&1 == 1 {
			s.Capacities = append(s.Capacities, c)
		}
	}
	if len(s.Capacities) == 0 {
		s.Capacities = propCaps[:1]
	}
	return s
}

func names[T interface{ String() string }](vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out
}

// checkGroups walks src's window as Stream's feeder does, starting a
// group at each index no earlier group holds, and checks the rule's
// invariants: the groups partition the window; a group lists its first
// index, then later ones, in increasing order; its members share one
// compile key and lie fewer than GroupSpan indexes past its first; and a
// group starts on an index whose key has an earlier group only past that
// group's span. It returns the groups.
func checkGroups(t testing.TB, src core.Source) [][]int64 {
	t.Helper()
	var groups [][]int64
	held := make(map[int64]bool)
	lastFirst := make(map[core.Point]int64) // compile key → its latest group's first
	for i := src.Start; i < src.End; i++ {
		if held[i] {
			continue
		}
		key := compileKey(src.Point(i))
		if f, ok := lastFirst[key]; ok && i-f < core.GroupSpan {
			t.Fatalf("index %d starts a group while %d's, with its key, is within span", i, f)
		}
		lastFirst[key] = i
		group := core.GroupAt(src, i)
		if len(group) == 0 || group[0] != i || !slices.IsSorted(group) {
			t.Fatalf("group at %d = %v: want %d first, then increasing", i, group, i)
		}
		for _, j := range group {
			if held[j] {
				t.Fatalf("index %d is in two groups", j)
			}
			held[j] = true
			if j >= src.End {
				t.Fatalf("group at %d holds %d, past the window's end %d", i, j, src.End)
			}
			if compileKey(src.Point(j)) != key {
				t.Fatalf("group at %d holds %d: %s and %s do not share a program", i, j, src.Point(i), src.Point(j))
			}
			if j-i >= core.GroupSpan {
				t.Fatalf("group at %d holds %d, past the span %d", i, j, core.GroupSpan)
			}
		}
		groups = append(groups, group)
	}
	if int64(len(held)) != src.End-src.Start {
		t.Fatalf("groups cover %d of %d indexes", len(held), src.End-src.Start)
	}
	return groups
}

// checkGrammarGroups checks that each compile group of grammar s in
// window [start, end) is its first index's later gate siblings: the
// indexes |reorders|×|policies| apart inside its (app, topology,
// capacity) block, up to the window's end. It also checks that the
// grammar's expansion, as a list, uses as many gates as the grammar.
func checkGrammarGroups(t testing.TB, s sweep.Space, start, end int64) {
	t.Helper()
	grid, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	end = max(start, min(end, grid.Size()))
	start = min(start, end)
	stride := int64(len(s.Reorders) * len(s.Policies))
	block := stride * int64(len(s.Gates))
	src := grid.Source(sweep.Window{Start: start, End: end})
	for _, group := range checkGroups(t, src) {
		i := group[0]
		var want []int64
		for j := i; j < i-i%block+block && j < end; j += stride {
			want = append(want, j)
		}
		if !slices.Equal(group, want) {
			t.Fatalf("%+v: group at %d = %v, want the gate siblings %v", s, i, group, want)
		}
	}
	points := make([]core.Point, grid.Size())
	for i := range points {
		points[i] = grid.PointAt(int64(i))
	}
	if list, grammar := core.List(points).Width, src.Width; list != grammar || grammar != len(s.Gates) {
		t.Fatalf("%+v: width %d as a list, %d as a grammar, want %d", s, list, grammar, len(s.Gates))
	}
}

// checkList checks the rule on a points list, over the whole list and
// over the window [start, end), clamped to the list.
func checkList(t testing.TB, points []core.Point, start, end int) {
	t.Helper()
	src := core.List(points)
	checkGroups(t, src)
	end = min(max(end, 0), len(points))
	src.Start, src.End = int64(min(max(start, 0), end)), int64(end)
	checkGroups(t, src)
}

func TestListGroupsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n < 200; n++ {
		b := make([]byte, rng.Intn(120))
		rng.Read(b)
		checkList(t, listOf(b, n%2 == 1), rng.Intn(40), rng.Intn(120))

		g := make([]byte, 6)
		rng.Read(g)
		start := rng.Int63n(64)
		checkGrammarGroups(t, grammarOf(g), start, start+rng.Int63n(64))
	}
	// The widest grammar: every gate, reorder and policy.
	checkGrammarGroups(t, grammarOf([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}), 0, 1<<10)
}

func TestListGroupsBreakPastSpan(t *testing.T) {
	span := int(core.GroupSpan)
	pt := core.Point{App: "BV", Topology: "L6", Capacity: 14}
	other := pt
	other.Capacity = 18
	points := make([]core.Point, 2*span)
	for i := range points {
		points[i] = other
	}
	points[0], points[span-1], points[span], points[2*span-1] = pt, pt, pt, pt
	points[span].Gate = models.FM
	src := core.List(points)
	for _, tc := range []struct {
		i    int64
		want []int64
	}{
		{0, []int64{0, int64(span - 1)}},
		{int64(span), []int64{int64(span), int64(2*span - 1)}},
	} {
		if got := core.GroupAt(src, tc.i); !slices.Equal(got, tc.want) {
			t.Errorf("group at %d = %v, want %v", tc.i, got, tc.want)
		}
	}
	if src.Width != 2 {
		t.Errorf("width = %d, want the list's 2 gates", src.Width)
	}
}

// TestGroupSpanIsWidestGrammar checks that groupSpan is the gate-sibling
// span of the grammar over every gate, reorder method and policy: its
// first point's siblings are exactly one per gate, the last of them
// GroupSpan-1 indexes past the first.
func TestGroupSpanIsWidestGrammar(t *testing.T) {
	s := sweep.Space{
		Apps:       []string{"BV"},
		Topologies: []string{"L6"},
		Capacities: []int{14},
		Gates:      names(models.GateImpls()),
		Reorders:   names(models.ReorderMethods()),
		Policies:   names(propPolicies),
	}
	grid, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	group := core.GroupAt(grid.Source(grid.FullWindow()), 0)
	if len(group) != len(s.Gates) || group[len(group)-1] != core.GroupSpan-1 {
		t.Errorf("first group = %v, want %d gate siblings ending at GroupSpan-1 = %d", group, len(s.Gates), core.GroupSpan-1)
	}
}

// TestGrammarAsListCompilesAsGrammar streams a grammar and its expansion
// as a list, each on a fresh toolflow: both compile one program per
// compile key.
func TestGrammarAsListCompilesAsGrammar(t *testing.T) {
	grid, err := sweep.Space{
		Apps:       []string{"BV@4", "BV@6"},
		Topologies: []string{"L2", "L3"},
		Capacities: []int{14},
		Gates:      []string{"AM1", "PM", "FM"},
		Reorders:   []string{"GS", "IS"},
		Policies:   []string{"baseline", "lookahead"},
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	points := make([]core.Point, grid.Size())
	keys := map[core.Point]bool{}
	for i := range points {
		points[i] = grid.PointAt(int64(i))
		keys[compileKey(points[i])] = true
	}
	for name, src := range map[string]core.Source{
		"grammar": grid.Source(grid.FullWindow()),
		"list":    core.List(points),
	} {
		tf := core.New(models.Default())
		tf.Stream(context.Background(), src, 2, func(core.Row) bool { return true })
		if got := tf.Compiles(); got != uint64(len(keys)) {
			t.Errorf("%s: %d compiles, want one per compile key, %d", name, got, len(keys))
		}
	}
}

func FuzzListGroups(f *testing.F) {
	f.Add([]byte{0, 8, 16, 24, 1, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		span := int(core.GroupSpan)
		if len(b) > 4*span {
			b = b[:4*span]
		}
		start, end := 0, len(b)
		if len(b) >= 2 {
			start, end = int(b[0])%span, len(b)-int(b[1])%span
		}
		checkList(t, listOf(b, len(b)%2 == 1), start, end)
		if len(b) >= 6 {
			checkGrammarGroups(t, grammarOf(b), int64(start), int64(end))
		}
	})
}
