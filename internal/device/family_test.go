package device

import (
	"strings"
	"testing"
)

func TestFamiliesRegistry(t *testing.T) {
	fams := Families()
	if len(fams) != 5 {
		t.Fatalf("families = %d, want 5", len(fams))
	}
	order := []string{"linear", "grid", "ring", "mesh", "multimodule"}
	for i, f := range fams {
		if f.Name != order[i] {
			t.Errorf("family[%d] = %q, want %q", i, f.Name, order[i])
		}
		if f.Form == "" || f.Description == "" || f.Constraint == "" || len(f.Examples) == 0 {
			t.Errorf("family %q has incomplete metadata: %+v", f.Name, f)
		}
		for _, ex := range f.Examples {
			d, err := Parse(ex, 22)
			if err != nil {
				t.Errorf("family %q example %q: %v", f.Name, ex, err)
				continue
			}
			got, ok := MatchFamily(ex)
			if !ok || got.Name != f.Name {
				t.Errorf("example %q matched family %q, want %q", ex, got.Name, f.Name)
			}
			if err := d.Validate(); err != nil {
				t.Errorf("example %q: %v", ex, err)
			}
		}
	}
}

func TestParseUnknownSpecListsAllForms(t *testing.T) {
	_, err := Parse("Z9", 22)
	if err == nil {
		t.Fatal("Parse(Z9) should fail")
	}
	for _, form := range []string{"L<n>", "G<r>x<c>", "R<n>", "M<r>x<c>", "Mod<k>:<inner>"} {
		if !strings.Contains(err.Error(), form) {
			t.Errorf("error %q missing form %s", err, form)
		}
	}
}

func TestMeshStructure(t *testing.T) {
	d, err := NewMesh(2, 3, 22)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "M2x3" || d.NumTraps() != 6 {
		t.Errorf("mesh = %s with %d traps, want M2x3 with 6", d.Name, d.NumTraps())
	}
	if len(d.Junctions) != 2*(3+1) {
		t.Errorf("junctions = %d, want 8 (rows x (cols+1))", len(d.Junctions))
	}
	// Every trap is bounded by junctions: no free ends, so no dead-end
	// traps (and no ports for multi-module stitching).
	if ports := freePorts(d); len(ports) != 0 {
		t.Errorf("mesh has %d free trap ends, want 0", len(ports))
	}
	// A vertical corridor at every column boundary makes cross-row
	// same-column routes junction-only — the congestion relief a grid's
	// sparser verticals cannot offer.
	r := NewRouter(d)
	for c := 0; c < 3; c++ {
		route, err := r.Route(c, 3+c) // trap (0,c) -> trap (1,c)
		if err != nil {
			t.Fatalf("route %d->%d: %v", c, 3+c, err)
		}
		if pt := route.PassThroughs(); len(pt) != 0 {
			t.Errorf("cross-row route %d->%d passes through traps %v, want junction-only", c, 3+c, pt)
		}
	}
}

func TestMeshXJunctions(t *testing.T) {
	d, err := NewMesh(3, 2, 22)
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for _, j := range d.Junctions {
		if j.Kind() == JunctionX {
			x++
		}
	}
	if x == 0 {
		t.Error("3-row mesh should have X junctions in its interior row")
	}
}

func TestGrid3RowsHasXJunctions(t *testing.T) {
	d, err := Parse("G3x5", 22)
	if err != nil {
		t.Fatal(err)
	}
	x, y := 0, 0
	for _, j := range d.Junctions {
		switch j.Kind() {
		case JunctionX:
			x++
		case JunctionY:
			y++
		}
	}
	// 3x5 grid: 4 junctions per row; middle-row junctions gain degree 4.
	if x != 4 {
		t.Errorf("X junctions = %d, want 4 (interior row)", x)
	}
	if y != 8 {
		t.Errorf("Y junctions = %d, want 8 (top and bottom rows)", y)
	}
}

func TestMultiModuleStructure(t *testing.T) {
	d, err := Parse("Mod2:G2x3", 22)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTraps() != 12 || d.Capacity != 22 {
		t.Errorf("Mod2:G2x3 = %d traps cap %d, want 12 traps cap 22", d.NumTraps(), d.Capacity)
	}
	if d.Name != "Mod2:G2x3" {
		t.Errorf("name = %q", d.Name)
	}
	var photonic []*Segment
	for _, s := range d.Segments {
		if s.Kind == SegPhotonic {
			photonic = append(photonic, s)
		}
	}
	if len(photonic) != 1 {
		t.Fatalf("photonic links = %d, want k-1 = 1", len(photonic))
	}
	link := photonic[0]
	if link.A.Node.Kind != NodeTrap || link.B.Node.Kind != NodeTrap {
		t.Errorf("photonic link joins %v-%v, want trap-trap", link.A.Node, link.B.Node)
	}
	// The link must join the two modules (trap IDs on opposite sides of
	// the module boundary).
	lo, hi := link.A.Node.Index, link.B.Node.Index
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo >= 6 || hi < 6 {
		t.Errorf("photonic link joins traps %d and %d, want one per module", lo, hi)
	}
	if !strings.HasPrefix(d.Traps[0].Name, "m0.") || !strings.HasPrefix(d.Traps[6].Name, "m1.") {
		t.Errorf("module trap names = %q, %q", d.Traps[0].Name, d.Traps[6].Name)
	}
	// Cross-module routes exist and traverse the link.
	r := NewRouter(d)
	route, err := r.Route(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	crossings := 0
	for _, h := range route.Hops {
		if d.Segments[h.Segment].Kind == SegPhotonic {
			crossings++
		}
	}
	if crossings != 1 {
		t.Errorf("route m0->m1 crosses %d links, want 1", crossings)
	}
}

func TestMultiModuleChainCount(t *testing.T) {
	d, err := Parse("Mod4:L6", 22)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTraps() != 24 {
		t.Errorf("traps = %d, want 24", d.NumTraps())
	}
	links := 0
	for _, s := range d.Segments {
		if s.Kind == SegPhotonic {
			links++
		}
	}
	if links != 3 {
		t.Errorf("photonic links = %d, want k-1 = 3", links)
	}
}

func TestMultiModuleNested(t *testing.T) {
	// A multi-module device still exposes free trap ends, so it can itself
	// be a module: 2 x (2 x L2) = 4 linear modules, 3 links total.
	d, err := Parse("Mod2:Mod2:L2", 22)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTraps() != 8 {
		t.Errorf("traps = %d, want 8", d.NumTraps())
	}
	links := 0
	for _, s := range d.Segments {
		if s.Kind == SegPhotonic {
			links++
		}
	}
	if links != 3 {
		t.Errorf("photonic links = %d, want 3", links)
	}
}

func TestMultiModuleErrors(t *testing.T) {
	for _, bad := range []string{
		"Mod0:L2",   // k < 2
		"Mod1:L2",   // k < 2
		"Mod2:R6",   // ring has no free trap ends
		"Mod2:M2x2", // mesh has no free trap ends
		"ModX:L2",   // non-numeric k
		"Mod2:",     // missing inner
		"Mod2",      // missing colon and inner
		"Mod2:Z9",   // unknown inner family
		"Mod-2:L2",  // negative k
	} {
		if _, err := Parse(bad, 22); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestBuilderTrapLimits(t *testing.T) {
	for _, bad := range []string{"L9999999", "G9999x9999", "R9999999", "M9999x9999", "Mod9999:L9999"} {
		if _, err := Parse(bad, 22); err == nil {
			t.Errorf("Parse(%q) should fail the %d-trap limit", bad, MaxTraps)
		}
	}
}

// TestFamilyGridBuildsValid is the table-wide property test: every
// family builds Validate-clean (hence connected) devices across a size
// grid, and every built device reports its own spec as its name.
func TestFamilyGridBuildsValid(t *testing.T) {
	specs := []string{
		"L1", "L2", "L7", "L40",
		"G2x2", "G2x9", "G3x3", "G3x7", "G5x4",
		"R3", "R5", "R24",
		"M2x2", "M2x5", "M3x3", "M4x4",
		"Mod2:L3", "Mod3:G2x2", "Mod2:G3x3", "Mod5:L1", "Mod2:Mod2:G2x2",
	}
	for _, spec := range specs {
		for _, capacity := range []int{2, 22, 40} {
			d, err := Parse(spec, capacity)
			if err != nil {
				t.Errorf("Parse(%q, %d): %v", spec, capacity, err)
				continue
			}
			if err := d.Validate(); err != nil {
				t.Errorf("%s at capacity %d: %v", spec, capacity, err)
			}
			if d.Capacity != capacity {
				t.Errorf("%s: capacity = %d, want %d", spec, d.Capacity, capacity)
			}
			// All-pairs routability (Validate checks connectivity over all
			// nodes; routes additionally exercise the router on each kind).
			r := NewRouter(d)
			for dst := 1; dst < d.NumTraps(); dst++ {
				if _, err := r.Route(0, dst); err != nil {
					t.Errorf("%s: route 0->%d: %v", spec, dst, err)
				}
			}
		}
	}
}

// FuzzDeviceParse asserts the family table's parsing invariants: Parse
// never panics, any device it does return passes Validate (connected,
// consistent back-references, photonic links trap-to-trap only), and a
// spec that parses is its device's name up to case, so each device has
// one spelling and one cache key.
func FuzzDeviceParse(f *testing.F) {
	for _, seed := range []string{
		"", "L6", "G2x3", "R6", "M2x3", "Mod2:G2x3",
		"G1x3", "Mod0:L2", "Mod2:R6", "Mod2:Mod2:L2",
		"L999999999999999999999", "G2x", "Mod2:", "Mod:L2",
		"l6", "g2X3", "modd2:L2", "Mod2:世界", "Μ2x3", "\x00L6",
		"L6junk", "G02x3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := Parse(spec, 22)
		if err != nil {
			return
		}
		if d == nil {
			t.Fatalf("Parse(%q) returned nil device and nil error", spec)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Parse(%q) built an invalid device: %v", spec, err)
		}
		if d.NumTraps() > MaxTraps {
			t.Fatalf("Parse(%q) built %d traps, over the %d limit", spec, d.NumTraps(), MaxTraps)
		}
		if !strings.EqualFold(spec, d.Name) {
			t.Fatalf("Parse(%q) built %s: a non-canonical spelling", spec, d.Name)
		}
	})
}
