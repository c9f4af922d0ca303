package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearStructure(t *testing.T) {
	d, err := NewLinear(6, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "L6" {
		t.Errorf("name = %q", d.Name)
	}
	if len(d.Traps) != 6 || len(d.Segments) != 5 || len(d.Junctions) != 0 {
		t.Errorf("L6 = %s", d)
	}
	if d.MaxIons() != 120 {
		t.Errorf("MaxIons = %d, want 120", d.MaxIons())
	}
	// End traps have one dead end.
	if d.Traps[0].Seg[Left] != -1 || d.Traps[0].Seg[Right] != 0 {
		t.Errorf("trap 0 segs = %v", d.Traps[0].Seg)
	}
	if d.Traps[5].Seg[Right] != -1 {
		t.Errorf("trap 5 segs = %v", d.Traps[5].Seg)
	}
}

func TestLinearSingleTrap(t *testing.T) {
	d, err := NewLinear(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Segments) != 0 {
		t.Errorf("single trap should have no segments")
	}
}

func TestGrid2x2MatchesFigure2b(t *testing.T) {
	d, err := NewGrid(2, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 2b: 4 traps, 5 segments, 2 junctions.
	if len(d.Traps) != 4 || len(d.Segments) != 5 || len(d.Junctions) != 2 {
		t.Fatalf("G2x2 = %s, want 4 traps/5 segments/2 junctions", d)
	}
	for _, j := range d.Junctions {
		if j.Kind() != JunctionY {
			t.Errorf("junction %d kind = %s, want Y", j.ID, j.Kind())
		}
	}
}

func TestGrid2x3Structure(t *testing.T) {
	d, err := NewGrid(2, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	// 6 traps; per row 2 junctions x 2 segments = 8 row segments, plus 2
	// vertical = 10 segments; 4 junctions all Y (degree 3).
	if len(d.Traps) != 6 || len(d.Segments) != 10 || len(d.Junctions) != 4 {
		t.Fatalf("G2x3 = %s", d)
	}
	for _, j := range d.Junctions {
		if j.Kind() != JunctionY {
			t.Errorf("junction %d kind = %s, want Y", j.ID, j.Kind())
		}
	}
}

func TestGrid3x3HasXJunctions(t *testing.T) {
	d, err := NewGrid(3, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	var xCount int
	for _, j := range d.Junctions {
		if j.Kind() == JunctionX {
			xCount++
		}
	}
	// Middle row junctions have degree 4 (two traps + up + down).
	if xCount != 2 {
		t.Errorf("G3x3 X junctions = %d, want 2", xCount)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewLinear(0, 20); err == nil {
		t.Error("NewLinear(0) should fail")
	}
	if _, err := NewLinear(3, 1); err == nil {
		t.Error("capacity 1 should fail validation")
	}
	if _, err := NewGrid(1, 3, 20); err == nil {
		t.Error("NewGrid(1,3) should fail")
	}
}

func TestParse(t *testing.T) {
	d, err := Parse("L6", 17)
	if err != nil || d.NumTraps() != 6 {
		t.Errorf("Parse(L6) = %v, %v", d, err)
	}
	d, err = Parse("G2x3", 17)
	if err != nil || d.NumTraps() != 6 {
		t.Errorf("Parse(G2x3) = %v, %v", d, err)
	}
	for _, bad := range []string{
		"", "X", "Lx", "G2", "Gax3", "Q5",
		// Sizes are canonical decimal digits with nothing left over.
		"L6junk", "L06", "L+6", "G2x3x9", "G02x03", "R6!", "M2x3zz",
		"Mod2:L6junk", "Mod02:L06", "Mod+2:L6",
	} {
		if _, err := Parse(bad, 17); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	// Family letters stay case-insensitive; the name is canonical.
	for spec, name := range map[string]string{
		"l6": "L6", "g2x3": "G2x3", "r6": "R6", "m2x3": "M2x3", "MOD2:l6": "Mod2:L6",
	} {
		if d, err := Parse(spec, 17); err != nil || d.Name != name {
			t.Errorf("Parse(%q) = %v, %v; want %s", spec, d, err, name)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d, _ := NewLinear(3, 20)
	d.Traps[1].Seg[Left] = 99
	if err := d.Validate(); err == nil {
		t.Error("bad segment reference should fail validation")
	}

	d, _ = NewGrid(2, 2, 20)
	d.Junctions[0].Segments = d.Junctions[0].Segments[:1]
	if err := d.Validate(); err == nil {
		t.Error("degree-1 junction should fail validation")
	}
}

func TestValidateDisconnected(t *testing.T) {
	d, _ := NewLinear(3, 20)
	// Detach trap 2 by removing segment attachment both ways.
	d.Traps[2].Seg[Left] = -1
	d.Traps[1].Seg[Right] = -1
	d.Segments = d.Segments[:1]
	// Re-number: only segment 0 remains.
	if err := d.Validate(); err == nil {
		t.Error("disconnected device should fail validation")
	}
}

func TestLinearRouteAdjacent(t *testing.T) {
	d, _ := NewLinear(6, 20)
	r := NewRouter(d)
	route, err := r.Route(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dstEnd := route.Hops[len(route.Hops)-1].EnterEnd; route.SrcEnd != Right || dstEnd != Left {
		t.Errorf("route ends: src=%s dst=%s", route.SrcEnd, dstEnd)
	}
	if len(route.PassThroughs()) != 0 {
		t.Errorf("adjacent route has pass-throughs: %v", route.PassThroughs())
	}
	if len(route.Hops) != 1 {
		t.Errorf("%d hops, want 1", len(route.Hops))
	}
}

func TestLinearRoutePassThrough(t *testing.T) {
	d, _ := NewLinear(6, 20)
	r := NewRouter(d)
	route, err := r.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts := route.PassThroughs()
	if len(pts) != 2 {
		t.Fatalf("pass-throughs = %v, want traps 1,2", pts)
	}
	if pts[0].Trap != 1 || pts[1].Trap != 2 {
		t.Errorf("pass-through traps = %v", pts)
	}
	if pts[0].EnterEnd != Left || pts[0].ExitEnd != Right {
		t.Errorf("pass-through ends = %+v", pts[0])
	}
	// Reverse direction flips ends.
	back, _ := r.Route(3, 0)
	bpts := back.PassThroughs()
	if bpts[0].Trap != 2 || bpts[0].EnterEnd != Right || bpts[0].ExitEnd != Left {
		t.Errorf("reverse pass-through = %+v", bpts[0])
	}
}

func TestGridRouteAvoidsTraps(t *testing.T) {
	d, _ := NewGrid(2, 2, 20)
	r := NewRouter(d)
	// Diagonal route T0 (0,0) -> T3 (1,1) should cross both junctions and
	// pass through no traps (paper: "shuttles do not encounter
	// intermediate traps" on the 2x2 grid).
	route, err := r.Route(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(route.PassThroughs()) != 0 {
		t.Errorf("grid diagonal passes through traps: %v", route.PassThroughs())
	}
	if got := len(route.Junctions()); got != 2 {
		t.Errorf("junction crossings = %d, want 2", got)
	}
}

func TestGrid2x3CrossRowRoute(t *testing.T) {
	d, _ := NewGrid(2, 3, 20)
	r := NewRouter(d)
	// T0 (0,0) -> T5 (1,2): down at the first junction then along row 1,
	// passing through trap T4 (1,1) once; compare with the linear
	// equivalent (T0->T5 on L6 would pass through 4 traps).
	route, err := r.Route(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(route.PassThroughs()); got != 1 {
		t.Errorf("pass-throughs = %d, want 1 (%s)", got, route)
	}
}

func TestRouterErrorsAndCache(t *testing.T) {
	d, _ := NewLinear(3, 20)
	r := NewRouter(d)
	if _, err := r.Route(0, 0); err == nil {
		t.Error("same-trap route should fail")
	}
	if _, err := r.Route(-1, 2); err == nil {
		t.Error("out-of-range route should fail")
	}
	a, _ := r.Route(0, 2)
	b, _ := r.Route(0, 2)
	if a != b {
		t.Error("route cache should return identical pointer")
	}
}

func TestDistanceMonotoneOnLinear(t *testing.T) {
	d, _ := NewLinear(8, 20)
	r := NewRouter(d)
	prev := 0.0
	for dst := 1; dst < 8; dst++ {
		got, err := r.Distance(0, dst)
		if err != nil {
			t.Fatal(err)
		}
		if got <= prev {
			t.Errorf("Distance(0,%d) = %f not > %f", dst, got, prev)
		}
		prev = got
	}
	if dd, _ := r.Distance(4, 4); dd != 0 {
		t.Errorf("self distance = %f", dd)
	}
}

func TestRoutePropertyAllPairs(t *testing.T) {
	// Property: on random linear and grid devices every trap pair has a
	// route whose hops are graph-consistent and end at the destination.
	check := func(d *Device) bool {
		r := NewRouter(d)
		for src := 0; src < d.NumTraps(); src++ {
			for dst := 0; dst < d.NumTraps(); dst++ {
				if src == dst {
					continue
				}
				route, err := r.Route(src, dst)
				if err != nil {
					return false
				}
				if route.Hops[len(route.Hops)-1].Node.Index != dst || route.Src != src {
					return false
				}
				// Verify hop chain connectivity.
				cur := NodeRef{NodeTrap, src}
				for _, h := range route.Hops {
					seg := d.Segments[h.Segment]
					if _, ok := seg.EndpointAt(cur); !ok {
						return false
					}
					next := seg.OtherSide(cur)
					if next.Node != h.Node {
						return false
					}
					cur = h.Node
				}
			}
		}
		return true
	}
	f := func(nRaw, rRaw, cRaw uint8) bool {
		n := int(nRaw%10) + 2
		lin, err := NewLinear(n, 20)
		if err != nil || !check(lin) {
			return false
		}
		rows := int(rRaw%3) + 2
		cols := int(cRaw%3) + 2
		grid, err := NewGrid(rows, cols, 20)
		if err != nil || !check(grid) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEndAndNodeStrings(t *testing.T) {
	if Left.String() != "left" || Right.String() != "right" {
		t.Error("End.String")
	}
	if Left.Opposite() != Right {
		t.Error("Opposite")
	}
	if (NodeRef{NodeTrap, 3}).String() != "T3" || (NodeRef{NodeJunction, 1}).String() != "J1" {
		t.Error("NodeRef.String")
	}
	if JunctionY.String() != "Y" || JunctionX.String() != "X" || JunctionPass.String() != "pass" {
		t.Error("JunctionKind.String")
	}
}

func TestRouteString(t *testing.T) {
	d, _ := NewLinear(3, 20)
	r := NewRouter(d)
	route, _ := r.Route(0, 2)
	want := "T0 -s0-> T1 -s1-> T2"
	if got := route.String(); got != want {
		t.Errorf("Route.String = %q, want %q", got, want)
	}
}

func TestRingStructure(t *testing.T) {
	d, err := NewRing(6, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "R6" || len(d.Segments) != 6 || len(d.Junctions) != 0 {
		t.Errorf("R6 = %s", d)
	}
	// Every trap end is connected (no dead ends on a ring).
	for _, tr := range d.Traps {
		if tr.Seg[Left] < 0 || tr.Seg[Right] < 0 {
			t.Errorf("trap %d has a dead end on a ring", tr.ID)
		}
	}
	if _, err := NewRing(2, 20); err == nil {
		t.Error("NewRing(2) should fail")
	}
}

func TestRingWraparoundRoute(t *testing.T) {
	d, _ := NewRing(6, 20)
	r := NewRouter(d)
	// T0 -> T5 is one hop via the wraparound segment, not four
	// pass-throughs the long way.
	route, err := r.Route(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(route.PassThroughs()) != 0 {
		t.Errorf("wraparound route passes through traps: %s", route)
	}
	if dstEnd := route.Hops[len(route.Hops)-1].EnterEnd; route.SrcEnd != Left || dstEnd != Right {
		t.Errorf("wraparound ends: %s -> %s", route.SrcEnd, dstEnd)
	}
	// Maximum pass-through count on R6 is 2 (opposite side), vs 4 on L6.
	worst, _ := r.Route(0, 3)
	if got := len(worst.PassThroughs()); got != 2 {
		t.Errorf("R6 antipodal pass-throughs = %d, want 2", got)
	}
}

func TestParseRing(t *testing.T) {
	d, err := Parse("R5", 10)
	if err != nil || d.NumTraps() != 5 {
		t.Errorf("Parse(R5) = %v, %v", d, err)
	}
	if _, err := Parse("Rx", 10); err == nil {
		t.Error("Parse(Rx) should fail")
	}
}

// walkPrice prices a route by walking its hops, with its own copy of the
// router's weights: 1 per shuttling segment, 60 per photonic link, and
// 20, 24 or 64 per Y junction, X junction or trap passed through.
func walkPrice(d *Device, route *Route) float64 {
	cost := 0.0
	for i, h := range route.Hops {
		if d.Segments[h.Segment].Kind == SegPhotonic {
			cost += 60
		} else {
			cost++
		}
		if i == len(route.Hops)-1 {
			break // the destination is free to enter
		}
		switch {
		case h.Node.Kind == NodeTrap:
			cost += 64
		case d.Junctions[h.Node.Index].Kind() == JunctionX:
			cost += 24
		default:
			cost += 20
		}
	}
	return cost
}

// TestDistanceIsRoutePrice pins the price the router stores with each
// route: on every family's example devices and larger and nested ones,
// Distance must equal, bit for bit, the cost of walking Route's hops, and
// Distance(b, a), for every ordered trap pair. Route's error texts stay as
// they were.
func TestDistanceIsRoutePrice(t *testing.T) {
	specs := []string{"Mod3:G2x5", "Mod2:Mod2:L2", "G3x5", "M3x4", "R7", "L9", "Mod4:L6", "G4x4"}
	for _, f := range Families() {
		specs = append(specs, f.Examples...)
	}
	for _, spec := range specs {
		d, err := Parse(spec, 10)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRouter(d)
		for src := 0; src < d.NumTraps(); src++ {
			for dst := 0; dst < d.NumTraps(); dst++ {
				got, err := r.Distance(src, dst)
				if err != nil {
					t.Fatalf("%s: Distance(%d, %d): %v", spec, src, dst, err)
				}
				want := 0.0
				if src != dst {
					route, err := r.Route(src, dst)
					if err != nil {
						t.Fatalf("%s: Route(%d, %d): %v", spec, src, dst, err)
					}
					want = walkPrice(d, route)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Distance(%d, %d) = %v, walking the route gives %v",
						spec, src, dst, got, want)
				}
				if back, err := r.Distance(dst, src); err != nil || back != got {
					t.Fatalf("%s: Distance(%d, %d) = %v, Distance(%d, %d) = %v (%v)",
						spec, src, dst, got, dst, src, back, err)
				}
			}
		}
	}

	d, _ := NewLinear(3, 20)
	d.Traps[2].Seg[Left] = -1
	d.Traps[1].Seg[Right] = -1
	d.Segments = d.Segments[:1]
	r := NewRouter(d)
	for _, tc := range []struct {
		src, dst int
		want     string
	}{
		{0, 0, "device: route 0->0 within one trap"},
		{-1, 2, "device: route -1->2 out of range [0,3)"},
		{0, 3, "device: route 0->3 out of range [0,3)"},
		{0, 2, "device: no route from trap 0 to trap 2"},
		{2, 0, "device: no route from trap 2 to trap 0"},
	} {
		if _, err := r.Route(tc.src, tc.dst); err == nil || err.Error() != tc.want {
			t.Errorf("Route(%d, %d) error = %v, want %q", tc.src, tc.dst, err, tc.want)
		}
		if _, err := r.Distance(tc.src, tc.dst); tc.src != tc.dst && (err == nil || err.Error() != tc.want) {
			t.Errorf("Distance(%d, %d) error = %v, want %q", tc.src, tc.dst, err, tc.want)
		}
	}
}
