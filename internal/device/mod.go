package device

import (
	"fmt"
	"strings"
)

// modPort is one unattached trap end of a module, usable as a photonic
// link attachment point.
type modPort struct {
	trap int
	end  End
}

// freePorts lists a device's unattached trap ends in (trap ID, Left
// before Right) order. These are where photonic interconnects can dock.
func freePorts(d *Device) []modPort {
	var ports []modPort
	for _, t := range d.Traps {
		for e, sid := range t.Seg {
			if sid < 0 {
				ports = append(ports, modPort{trap: t.ID, end: End(e)})
			}
		}
	}
	return ports
}

// NewMultiModule builds a Mod<k>:<inner> device: k copies of the inner
// topology chained by photonic interconnect segments, the distributed
// TITAN-style design (PAPERS.md) in which a "device" is several QCCD
// modules joined by optical links. Module i's last free trap end is
// stitched to module i+1's first free trap end (free ends ordered by trap
// ID, left before right), so linear modules chain end to end and grid
// modules chain corner to corner. The inner topology must expose at least
// two free trap ends; rings and meshes, whose trap ends are all occupied,
// cannot be modules.
func NewMultiModule(k int, inner *Device) (*Device, error) {
	if k < 2 {
		return nil, fmt.Errorf("device: multi-module needs k >= 2 modules, got %d", k)
	}
	ports := freePorts(inner)
	if len(ports) < 2 {
		return nil, fmt.Errorf("device: %s exposes %d free trap ends; multi-module stitching needs >= 2 (rings and meshes cannot be modules)",
			inner.Name, len(ports))
	}
	nt, nj := len(inner.Traps), len(inner.Junctions)
	if k > MaxTraps/nt {
		return nil, fmt.Errorf("device: %d x %s exceeds the %d-trap limit", k, inner.Name, MaxTraps)
	}
	entry, exit := ports[0], ports[len(ports)-1]

	g := newGraph(fmt.Sprintf("Mod%d:%s", k, inner.Name), inner.Capacity)
	for m := 0; m < k; m++ {
		for _, t := range inner.Traps {
			g.trap(fmt.Sprintf("m%d.%s", m, t.Name))
		}
	}
	for m := 0; m < k; m++ {
		for range inner.Junctions {
			g.junction()
		}
	}
	offset := func(ep Endpoint, m int) Endpoint {
		if ep.Node.Kind == NodeTrap {
			ep.Node.Index += m * nt
		} else {
			ep.Node.Index += m * nj
		}
		return ep
	}
	for m := 0; m < k; m++ {
		for _, s := range inner.Segments {
			g.addSegment(offset(s.A, m), offset(s.B, m), s.Kind)
		}
	}
	for m := 0; m+1 < k; m++ {
		g.photonic(
			atTrap(m*nt+exit.trap, exit.end),
			atTrap((m+1)*nt+entry.trap, entry.end),
		)
	}
	return g.finish()
}

// buildMod parses a Mod<k>:<inner> spec, builds the inner topology
// through Parse (any family, including nested Mod specs, is a valid
// module), and stitches k copies.
func buildMod(spec string, capacity int) (*Device, error) {
	ks, inner, found := strings.Cut(spec[3:], ":") // Match guarantees the "Mod" prefix
	k, ok := parseSize(ks)
	if !found || !ok {
		return nil, fmt.Errorf("device: bad multi-module spec %q (want Mod<k>:<inner>)", spec)
	}
	if k < 2 {
		return nil, fmt.Errorf("device: multi-module needs k >= 2 modules, got %d", k)
	}
	innerDev, err := Parse(inner, capacity)
	if err != nil {
		return nil, err
	}
	return NewMultiModule(k, innerDev)
}
