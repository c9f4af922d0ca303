// Package device models the static hardware description of a QCCD-based
// trapped-ion system (§III-IV of the paper): trapping zones holding linear
// ion chains, shuttling path segments, and the X/Y junctions where
// segments meet. Topologies are built from one closed table of spec
// families (see Family): the paper's linear (L<n>) and grid (G<r>x<c>)
// devices, rings (R<n>), junction-rich meshes (M<r>x<c>), and
// multi-module devices (Mod<k>:<inner>) whose modules are stitched by
// photonic interconnect segments. Shortest-path routing over the device
// graph understands both edge kinds.
//
// The grid generalizes the paper's Figure 2b: one junction sits between
// each pair of row-adjacent traps and junctions in the same column are
// connected by vertical segments, so a 2x2 grid has exactly 5 segments and
// 2 junctions as in the figure. Routes may cross junctions (a timed
// crossing operation) or pass through an intermediate trap, which forces a
// merge into and re-split out of that trap's chain (Figure 4).
package device

import "fmt"

// End identifies one of the two ends of a trap's linear ion chain.
type End uint8

const (
	// Left is chain position 0; Right is the highest position.
	Left  End = 0
	Right End = 1
)

// Opposite returns the other end.
func (e End) Opposite() End { return 1 - e }

// String returns "left" or "right".
func (e End) String() string {
	if e == Left {
		return "left"
	}
	return "right"
}

// NodeKind discriminates the two node types of the device graph.
type NodeKind uint8

const (
	// NodeTrap is a trapping zone holding an ion chain.
	NodeTrap NodeKind = iota
	// NodeJunction is a point where shuttling segments meet.
	NodeJunction
)

// NodeRef identifies a device-graph node.
type NodeRef struct {
	Kind  NodeKind
	Index int
}

// String renders the node as T<i> or J<i>.
func (n NodeRef) String() string {
	if n.Kind == NodeTrap {
		return fmt.Sprintf("T%d", n.Index)
	}
	return fmt.Sprintf("J%d", n.Index)
}

// Endpoint is one attachment point of a segment: either a specific end of
// a trap or a junction port.
type Endpoint struct {
	Node NodeRef
	// TrapEnd is meaningful only when Node.Kind == NodeTrap.
	TrapEnd End
}

// SegmentKind discriminates how a segment is traversed. The zero value is
// an ordinary shuttling segment, so builders that predate the multi-module
// family construct byte-identical devices without naming a kind.
type SegmentKind uint8

const (
	// SegShuttle is a physical shuttling path: the ion moves through it,
	// paying the Table I move time and the K2 motional heating once.
	SegShuttle SegmentKind = iota
	// SegPhotonic is an optical interconnect between two QCCD modules
	// (TITAN-style, PAPERS.md): the qubit state crosses by remote
	// entanglement plus teleportation onto a fresh ion on the far side.
	// Traversal is a single timed link operation — no per-unit move time
	// and no K2 heating — governed by the photonic-link Params.
	SegPhotonic
)

// String names the segment kind.
func (k SegmentKind) String() string {
	if k == SegPhotonic {
		return "photonic"
	}
	return "shuttle"
}

// Segment is a straight shuttling path piece connecting two endpoints.
// Moving through one takes Table I's "move through one segment" time; a
// photonic segment is one timed link transit instead.
type Segment struct {
	ID   int
	A, B Endpoint
	Kind SegmentKind
}

// OtherSide returns the endpoint of s that is not at node n.
func (s *Segment) OtherSide(n NodeRef) Endpoint {
	if s.A.Node == n {
		return s.B
	}
	return s.A
}

// EndpointAt returns the endpoint of s at node n and whether one exists.
func (s *Segment) EndpointAt(n NodeRef) (Endpoint, bool) {
	if s.A.Node == n {
		return s.A, true
	}
	if s.B.Node == n {
		return s.B, true
	}
	return Endpoint{}, false
}

// Trap is a trapping zone. Seg holds the segment ID attached at each end,
// or -1 when that end is a dead end.
type Trap struct {
	ID   int
	Name string
	Seg  [2]int
}

// JunctionKind classifies a junction by its degree, which selects the
// Table I crossing time.
type JunctionKind uint8

const (
	// JunctionPass has degree 2 (a through-connector).
	JunctionPass JunctionKind = iota
	// JunctionY has degree 3 (Table I: 100µs crossing).
	JunctionY
	// JunctionX has degree 4 (Table I: 120µs crossing).
	JunctionX
)

// String names the junction kind.
func (k JunctionKind) String() string {
	switch k {
	case JunctionY:
		return "Y"
	case JunctionX:
		return "X"
	default:
		return "pass"
	}
}

// Junction is a meeting point of 2-4 segments.
type Junction struct {
	ID       int
	Segments []int
}

// Kind returns the junction classification by degree.
func (j *Junction) Kind() JunctionKind {
	switch len(j.Segments) {
	case 3:
		return JunctionY
	case 4:
		return JunctionX
	default:
		return JunctionPass
	}
}

// Device is a static QCCD hardware description. Capacity is the maximum
// chain length per trap, uniform across traps as in the paper's study.
type Device struct {
	Name      string
	Capacity  int
	Traps     []*Trap
	Junctions []*Junction
	Segments  []*Segment
}

// NumTraps returns the trap count.
func (d *Device) NumTraps() int { return len(d.Traps) }

// MaxIons returns the total ion capacity of the device.
func (d *Device) MaxIons() int { return d.Capacity * len(d.Traps) }

// SegmentsAt returns the IDs of segments attached to node n.
func (d *Device) SegmentsAt(n NodeRef) []int {
	if n.Kind == NodeTrap {
		t := d.Traps[n.Index]
		var out []int
		for _, s := range t.Seg {
			if s >= 0 {
				out = append(out, s)
			}
		}
		return out
	}
	return d.Junctions[n.Index].Segments
}

// Validate checks structural consistency: endpoint back-references, at
// most one segment per trap end, junction degrees 2-4, positive capacity,
// and full trap-to-trap connectivity.
func (d *Device) Validate() error {
	if d.Capacity < 2 {
		return fmt.Errorf("device %s: capacity %d < 2", d.Name, d.Capacity)
	}
	if len(d.Traps) == 0 {
		return fmt.Errorf("device %s: no traps", d.Name)
	}
	for _, t := range d.Traps {
		for end, sid := range t.Seg {
			if sid < 0 {
				continue
			}
			if sid >= len(d.Segments) {
				return fmt.Errorf("trap %d end %d: bad segment %d", t.ID, end, sid)
			}
			ep, ok := d.Segments[sid].EndpointAt(NodeRef{NodeTrap, t.ID})
			if !ok || ep.TrapEnd != End(end) {
				return fmt.Errorf("trap %d end %d: segment %d does not attach back", t.ID, end, sid)
			}
		}
	}
	for _, j := range d.Junctions {
		if len(j.Segments) < 2 || len(j.Segments) > 4 {
			return fmt.Errorf("junction %d: degree %d outside [2,4]", j.ID, len(j.Segments))
		}
		for _, sid := range j.Segments {
			if sid < 0 || sid >= len(d.Segments) {
				return fmt.Errorf("junction %d: bad segment %d", j.ID, sid)
			}
			if _, ok := d.Segments[sid].EndpointAt(NodeRef{NodeJunction, j.ID}); !ok {
				return fmt.Errorf("junction %d: segment %d does not attach back", j.ID, sid)
			}
		}
	}
	for i, s := range d.Segments {
		if s.ID != i {
			return fmt.Errorf("segment %d: ID mismatch (%d)", i, s.ID)
		}
		if s.A.Node == s.B.Node {
			return fmt.Errorf("segment %d: self loop at %s", i, s.A.Node)
		}
		if s.Kind == SegPhotonic && (s.A.Node.Kind != NodeTrap || s.B.Node.Kind != NodeTrap) {
			return fmt.Errorf("segment %d: photonic link must join two trap ends", i)
		}
	}
	if len(d.Traps) > 1 {
		if err := d.checkConnected(); err != nil {
			return err
		}
	}
	return nil
}

func (d *Device) checkConnected() error {
	visited := map[NodeRef]bool{}
	queue := []NodeRef{{NodeTrap, 0}}
	visited[queue[0]] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, sid := range d.SegmentsAt(n) {
			next := d.Segments[sid].OtherSide(n).Node
			if !visited[next] {
				visited[next] = true
				queue = append(queue, next)
			}
		}
	}
	for _, t := range d.Traps {
		if !visited[NodeRef{NodeTrap, t.ID}] {
			return fmt.Errorf("device %s: trap %d unreachable from trap 0", d.Name, t.ID)
		}
	}
	return nil
}

// String summarizes the device.
func (d *Device) String() string {
	return fmt.Sprintf("%s: %d traps x cap %d, %d segments, %d junctions",
		d.Name, len(d.Traps), d.Capacity, len(d.Segments), len(d.Junctions))
}
