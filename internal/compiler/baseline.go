package compiler

import (
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/models"
)

// The baseline bundle is the paper's compiler, verbatim: the heuristics
// that lived inline in the monolithic compiler before the policy seams
// existed, extracted without behavioral change. The golden determinism
// gate (golden_test.go, 576-point paper grid) pins every baseline Result
// bit-identically, so this file is where "the paper's behavior" is defined.

func init() {
	Register(Bundle{
		Name: models.PolicyBaseline,
		Description: "the paper's heuristics: earliest-ready gate order, " +
			"first-use-order placement, distance+occupancy routing with Belady eviction",
		NewOrder: func() GateOrderPolicy { return baselineOrder{} },
		NewPlace: func() PlacementPolicy { return baselinePlace{} },
		NewRoute: func() RoutePolicy { return baselineRoute{} },
	})
}

// baselineOrder issues gates earliest-ready-first over the dependency DAG
// ("prioritize earlier gates", §IV): among ready gates, the lowest index
// fires next. Every DAG edge runs from a lower gate index to a higher one,
// so once gates 0..i-1 have fired gate i is ready, and it is the lowest
// unfired index: the order is program order, circuit.DAG.TopoOrder
// without building the DAG.
type baselineOrder struct{}

func (baselineOrder) NewSchedule(c *circuit.Circuit, st State) GateSchedule {
	return &programOrder{n: len(c.Gates)}
}

// programOrder yields gate indices 0, 1, ..., n-1.
type programOrder struct{ next, n int }

func (s *programOrder) Next() int {
	if s.next >= s.n {
		return -1
	}
	s.next++
	return s.next - 1
}

// baselinePlace maps qubits into traps in first-use order, filling each
// trap to capacity minus the buffer slots (§VI). With BalancedMapping the
// fill target is instead an even contiguous block per trap.
type baselinePlace struct{}

func (baselinePlace) Place(c *circuit.Circuit, d *device.Device, opts Options) ([][]int, error) {
	buffer := opts.BufferSlots
	if perTrap := (d.MaxIons() - c.NumQubits) / d.NumTraps(); buffer > perTrap {
		buffer = perTrap
	}
	if buffer > d.Capacity-1 {
		buffer = d.Capacity - 1
	}
	if buffer < 0 {
		buffer = 0
	}
	usable := d.Capacity - buffer
	if opts.BalancedMapping {
		if even := (c.NumQubits + d.NumTraps() - 1) / d.NumTraps(); even < usable {
			usable = even
		}
	}
	layout := make([][]int, d.NumTraps())
	trap := 0
	for _, q := range c.FirstUseOrder() {
		for len(layout[trap]) >= usable {
			trap++
		}
		layout[trap] = append(layout[trap], q)
	}
	return layout, nil
}

// baselineRoute scores shuttles by route distance plus reordering work
// plus a graded occupancy penalty, evicts the resident with the farthest
// next use (Belady's rule), and sends victims to the nearest trap with
// room, preferring traps off the remaining route.
type baselineRoute struct{}

// MoveCost scores shuttling qubit mover from src into dst: route distance,
// plus the chain-reordering work needed to bring the mover to the exit
// end (one SWAP for GS, per-position hops for IS — reorders are expensive
// in both fidelity and heat, so movers already sitting at the correct
// chain end are strongly preferred), plus a large penalty when the
// destination is full and would force an eviction.
func (baselineRoute) MoveCost(st State, mover, src, dst int) float64 {
	dist, err := st.Distance(src, dst)
	if err != nil {
		return 1e18
	}
	srcEnd, err := st.RouteSrcEnd(src, dst)
	if err != nil {
		return 1e18
	}
	if steps := st.ReorderSteps(mover, src, srcEnd); steps > 0 {
		if st.Options().Reorder == models.GS {
			dist += 10
		} else {
			dist += 5 * float64(steps)
		}
	}
	// Graded occupancy penalty: steering gates away from nearly-full
	// destinations avoids eviction churn, which costs far more (a full
	// shuttle plus usually a reorder) than routing the other operand.
	switch free := st.FreeSlots(dst); {
	case free <= 0:
		dist += 1e6
	case free == 1:
		dist += 24
	case free == 2:
		dist += 8
	}
	return dist
}

// PickVictim returns the resident of t with the farthest next use
// (Belady's rule), excluding the keep set; ties keep the first (leftmost
// chain position) so the choice is deterministic.
func (baselineRoute) PickVictim(st State, t int, keep []int) int {
	victim, victimUse := -1, -1
	for i, n := 0, st.ChainLen(t); i < n; i++ {
		q := st.ChainQubit(t, i)
		if contains(keep, q) {
			continue
		}
		if use := st.NextUse(q); use > victimUse {
			victimUse = use
			victim = q
		}
	}
	return victim
}

// PickEvictionDest returns the trap with free capacity closest to t,
// preferring traps outside softAvoid (the remaining route) and falling
// back to any trap with room; -1 when the device is full.
func (baselineRoute) PickEvictionDest(st State, t int, softAvoid []int) int {
	if dest := nearestSpace(st, t, softAvoid); dest >= 0 {
		return dest
	}
	return nearestSpace(st, t, nil)
}

// nearestSpace returns the trap with free capacity closest to t that is
// not in the avoid set, or -1 when none exists.
func nearestSpace(st State, t int, avoid []int) int {
	best, bestDist := -1, 0.0
	for cand := 0; cand < st.Device().NumTraps(); cand++ {
		if cand == t || st.ChainLen(cand) >= st.Device().Capacity || contains(avoid, cand) {
			continue
		}
		dist, err := st.Distance(t, cand)
		if err != nil {
			continue
		}
		if best < 0 || dist < bestDist {
			best, bestDist = cand, dist
		}
	}
	return best
}
