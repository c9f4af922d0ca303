package sweep

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

// listSpan is core.List's group span: every member of a list's compile
// group lies fewer than listSpan indexes past the group's first.
const listSpan = 19

// Axis values the list and grammar properties draw from.
var (
	propApps     = []string{"BV", "QFT"}
	propTopos    = []string{"L6", "G2x3"}
	propCaps     = []int{14, 18}
	propGates    = []string{"AM1", "AM2", "PM", "FM"}
	propReorders = []string{"GS", "IS"}
	propPolicies = []string{"baseline", "lookahead", "congestion"}
)

// pointOf decodes one byte into a point over the property axes.
func pointOf(b byte) core.Point {
	gate, _ := models.ParseGateImpl(propGates[b>>3&3])
	reorder, _ := models.ParseReorderMethod(propReorders[b>>5&1])
	policy, _ := models.ParsePolicy(propPolicies[int(b>>6)%3])
	return core.Point{
		App: propApps[b&1], Topology: propTopos[b>>1&1], Capacity: propCaps[b>>2&1],
		Gate: gate, Reorder: reorder, Policy: policy,
	}
}

// grammarOf decodes six bytes into a grammar over the property axes: a
// non-empty subset of each axis, with the enumerated axes in a rotated
// order.
func grammarOf(b []byte) Space {
	pick := func(vals []string, mask, rot byte) []string {
		var out []string
		for i := range vals {
			if v := vals[(i+int(rot))%len(vals)]; mask>>i&1 == 1 {
				out = append(out, v)
			}
		}
		if len(out) == 0 {
			out = vals[:1]
		}
		return out
	}
	s := Space{
		Apps:       pick(propApps, b[0], 0),
		Topologies: pick(propTopos, b[1], 0),
		Gates:      pick(propGates, b[3], b[3]>>4),
		Reorders:   pick(propReorders, b[4], b[4]>>4),
		Policies:   pick(propPolicies, b[5], b[5]>>4),
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

// checkListGroups checks List's compile groups on points: they partition
// the indexes, each shares one compile key, each member lies within
// listSpan of its group's first, a group starts only where no earlier
// same-key group is still within span, and Group of any member returns
// the rest of its group.
func checkListGroups(t testing.TB, points []core.Point) {
	t.Helper()
	g, err := List(points)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int64) core.Point {
		pt := g.PointAt(i)
		pt.Gate = 0
		return pt
	}
	first := make(map[int64]int64) // index → its group's first index
	var firsts []int64
	for i := range g.Size() {
		if _, ok := first[i]; ok {
			continue
		}
		group := g.Group(i)
		if len(group) == 0 || group[0] != i || !slices.IsSorted(group) {
			t.Fatalf("Group(%d) = %v: want %d first, then increasing", i, group, i)
		}
		for k, j := range group {
			if _, ok := first[j]; ok {
				t.Fatalf("index %d is in two groups", j)
			}
			first[j] = i
			if key(j) != key(i) {
				t.Fatalf("Group(%d) holds %d: %s and %s do not share a program", i, j, g.PointAt(i), g.PointAt(j))
			}
			if j-i >= listSpan {
				t.Fatalf("Group(%d) holds %d, past the span %d", i, j, listSpan)
			}
			if tail := g.Group(j); !slices.Equal(tail, group[k:]) {
				t.Fatalf("Group(%d) = %v, want the rest of %v", j, tail, group)
			}
		}
		for _, f := range firsts {
			if key(f) == key(i) && i-f < listSpan {
				t.Fatalf("index %d starts a group while %d's, with its key, is within span", i, f)
			}
		}
		firsts = append(firsts, i)
	}
	if int64(len(first)) != g.Size() {
		t.Fatalf("groups cover %d of %d indexes", len(first), g.Size())
	}
}

// checkGrammarAsList checks that a grammar's expansion, passed as a list,
// forms exactly the grammar's compile groups.
func checkGrammarAsList(t testing.TB, s Space) {
	t.Helper()
	grammar, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	points := make([]core.Point, grammar.Size())
	for i := range points {
		points[i] = grammar.PointAt(int64(i))
	}
	list, err := List(points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range grammar.Size() {
		if got, want := list.Group(i), grammar.Group(i); !slices.Equal(got, want) {
			t.Fatalf("%+v: as a list Group(%d) = %v, grammar gives %v", s, i, got, want)
		}
	}
}

func TestListGroupsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n < 200; n++ {
		b := make([]byte, rng.Intn(120))
		rng.Read(b)
		// Draw some lists from few keys, so same-key points recur both
		// inside and beyond the span.
		if n%2 == 1 {
			for i := range b {
				b[i] &= 0b00111011
			}
		}
		points := make([]core.Point, len(b))
		for i, c := range b {
			points[i] = pointOf(c)
		}
		checkListGroups(t, points)

		g := make([]byte, 6)
		rng.Read(g)
		checkGrammarAsList(t, grammarOf(g))
	}
	// The widest grammar: every gate, reorder and policy.
	checkGrammarAsList(t, grammarOf([]byte{1, 1, 1, 0xff, 0xff, 0xff}))
}

func TestListGroupsBreakPastSpan(t *testing.T) {
	pt := core.Point{App: "BV", Topology: "L6", Capacity: 14}
	other := pt
	other.Capacity = 18
	points := make([]core.Point, 2*listSpan)
	for i := range points {
		points[i] = other
	}
	points[0], points[listSpan-1], points[listSpan], points[2*listSpan-1] = pt, pt, pt, pt
	g, err := List(points)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		i    int64
		want []int64
	}{
		{0, []int64{0, listSpan - 1}},
		{listSpan, []int64{listSpan, 2*listSpan - 1}},
	} {
		if got := g.Group(tc.i); !slices.Equal(got, tc.want) {
			t.Errorf("Group(%d) = %v, want %v", tc.i, got, tc.want)
		}
	}
}

func FuzzListGroups(f *testing.F) {
	f.Add([]byte{0, 8, 16, 24, 1, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4*listSpan {
			b = b[:4*listSpan]
		}
		points := make([]core.Point, len(b))
		for i, c := range b {
			points[i] = pointOf(c)
		}
		checkListGroups(t, points)
		if len(b) >= 6 {
			checkGrammarAsList(t, grammarOf(b))
		}
	})
}
