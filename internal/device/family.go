package device

import (
	"fmt"
	"strings"
)

// MaxTraps bounds the trap count any builder will construct. It is far
// above every evaluated design (the TITAN-scale figure peaks at dozens of
// traps) and exists so hostile or fuzzed specs like "L999999999" fail
// cleanly instead of exhausting memory.
const MaxTraps = 1 << 16

// Family describes one topology spec family: its grammar, its
// constraints (surfaced by GET /v1/topologies), and its builder. The
// families form one closed table: parsing, validation and discovery all
// walk it, so a new family is one row that is at once sweepable and
// service-visible.
type Family struct {
	// Name is the short family identifier, e.g. "linear".
	Name string
	// Form is the spec grammar, e.g. "L<n>" or "Mod<k>:<inner>".
	Form string
	// Description is a one-line summary for discovery endpoints.
	Description string
	// Constraint states the size rules a spec must satisfy, e.g. "n >= 1".
	Constraint string
	// Examples are valid specs of this family.
	Examples []string
	// Match reports whether a spec string belongs to this family. At most
	// one family matches any spec; Match deciding family membership (not
	// validity) keeps size errors family-specific.
	Match func(spec string) bool
	// Build constructs and validates the device. It is only called when
	// Match(spec) is true.
	Build func(spec string, capacity int) (*Device, error)
}

// Families returns every topology family in table order.
func Families() []Family {
	out := make([]Family, len(families))
	copy(out, families)
	return out
}

// maxSpecLen bounds spec strings. Real specs are a few characters; the
// cap keeps recursive grammars (nested Mod<k>:<inner>) shallow under
// fuzzing.
const maxSpecLen = 256

// MatchFamily returns the family a spec belongs to.
func MatchFamily(spec string) (Family, bool) {
	if len(spec) < 2 || len(spec) > maxSpecLen {
		return Family{}, false
	}
	for _, f := range families {
		if f.Match(spec) {
			return f, true
		}
	}
	return Family{}, false
}

// specForms renders the family grammars for error messages, e.g.
// "L<n>, G<r>x<c>, R<n>, M<r>x<c> or Mod<k>:<inner>".
func specForms() string {
	forms := make([]string, len(families))
	for i, f := range families {
		forms[i] = f.Form
	}
	if len(forms) > 1 {
		return strings.Join(forms[:len(forms)-1], ", ") + " or " + forms[len(forms)-1]
	}
	return strings.Join(forms, ", ")
}

// Parse builds a device from a short spec string by dispatching to the
// family whose grammar the spec matches: "L6" for a 6-trap
// linear device, "G2x3" for a 2-row 3-column grid, "R6" for a ring,
// "M2x3" for a junction mesh, or "Mod2:G2x3" for two photonically linked
// grid modules. An unmatched spec's error lists every family's form.
func Parse(spec string, capacity int) (*Device, error) {
	f, ok := MatchFamily(spec)
	if !ok {
		return nil, fmt.Errorf("device: bad spec %q (want %s)", spec, specForms())
	}
	return f.Build(spec, capacity)
}

// ValidateSpec reports whether spec names a buildable device at the given
// capacity, without retaining the built device. The sweep grammar and the
// service request validators call this so a bad topology is a request
// error carrying the family list, not an evaluation failure.
func ValidateSpec(spec string, capacity int) error {
	_, err := Parse(spec, capacity)
	return err
}

// graph is the declarative assembly helper shared by every family
// builder: it accumulates traps, junctions and segments, maintaining the
// endpoint back-references that Validate checks, so builders state only
// their topology.
type graph struct {
	d *Device
}

// newGraph starts assembling a named device.
func newGraph(name string, capacity int) *graph {
	return &graph{d: &Device{Name: name, Capacity: capacity}}
}

// trap appends a trap with both ends unattached and returns its ID.
func (g *graph) trap(name string) int {
	id := len(g.d.Traps)
	g.d.Traps = append(g.d.Traps, &Trap{ID: id, Name: name, Seg: [2]int{-1, -1}})
	return id
}

// junction appends a junction with no attached segments and returns its
// ID; segments attach as they are added.
func (g *graph) junction() int {
	id := len(g.d.Junctions)
	g.d.Junctions = append(g.d.Junctions, &Junction{ID: id})
	return id
}

// atTrap returns the endpoint at one end of a trap.
func atTrap(trap int, end End) Endpoint {
	return Endpoint{Node: NodeRef{NodeTrap, trap}, TrapEnd: end}
}

// atJunction returns the endpoint at a junction port.
func atJunction(j int) Endpoint {
	return Endpoint{Node: NodeRef{NodeJunction, j}}
}

// segment appends a shuttling segment between two endpoints, wiring the
// trap-end and junction back-references, and returns its ID.
func (g *graph) segment(a, b Endpoint) int {
	return g.addSegment(a, b, SegShuttle)
}

// photonic appends a photonic interconnect segment between two trap ends.
func (g *graph) photonic(a, b Endpoint) int {
	return g.addSegment(a, b, SegPhotonic)
}

func (g *graph) addSegment(a, b Endpoint, kind SegmentKind) int {
	sid := len(g.d.Segments)
	g.d.Segments = append(g.d.Segments, &Segment{ID: sid, A: a, B: b, Kind: kind})
	for _, ep := range []Endpoint{a, b} {
		switch ep.Node.Kind {
		case NodeTrap:
			g.d.Traps[ep.Node.Index].Seg[ep.TrapEnd] = sid
		case NodeJunction:
			j := g.d.Junctions[ep.Node.Index]
			j.Segments = append(j.Segments, sid)
		}
	}
	return sid
}

// finish validates and returns the assembled device.
func (g *graph) finish() (*Device, error) {
	if err := g.d.Validate(); err != nil {
		return nil, err
	}
	return g.d, nil
}
