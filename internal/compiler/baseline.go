package compiler

import "repro/internal/models"

// The baseline policy is the paper's compiler, verbatim: the heuristics
// that lived inline in the monolithic compiler, kept without behavioral
// change. The golden determinism gate (golden_test.go, 576-point paper
// grid) pins every baseline Result bit-identically, so this file is where
// "the paper's behavior" is defined. The other policies reuse all of it
// except the gate order (lookahead) or add to the move cost (congestion).

// programOrder issues gates earliest-ready-first over the dependency DAG
// ("prioritize earlier gates", §IV): among ready gates, the lowest index
// fires next. Every DAG edge runs from a lower gate index to a higher one,
// so once gates 0..i-1 have fired gate i is ready, and it is the lowest
// unfired index: the order is program order, circuit.DAG.TopoOrder
// without building the DAG. It yields gate indices 0, 1, ..., n-1.
type programOrder struct{ next, n int }

func (s *programOrder) Next() int {
	if s.next >= s.n {
		return -1
	}
	s.next++
	return s.next - 1
}

// bufferSlots is the per-trap headroom the mapper leaves for incoming
// shuttles (§VI).
const bufferSlots = 2

// place maps qubits into traps in first-use order, filling each trap to
// capacity minus the buffer slots (§VI). The buffer shrinks to the room
// the device has beyond the program, and to capacity − 1, so a program
// that fits the device always places. It returns the per-trap chains
// (trap index → qubit list, position 0 = left end).
func (cc *compilation) place() [][]int {
	c, d := cc.circ, cc.dev
	buffer := bufferSlots
	if perTrap := (d.MaxIons() - c.NumQubits) / d.NumTraps(); buffer > perTrap {
		buffer = perTrap
	}
	if buffer > d.Capacity-1 {
		buffer = d.Capacity - 1
	}
	usable := d.Capacity - buffer
	layout := make([][]int, d.NumTraps())
	trap := 0
	for _, q := range cc.an.firstUse {
		for len(layout[trap]) >= usable {
			trap++
		}
		layout[trap] = append(layout[trap], q)
	}
	return layout
}

// moveCost scores shuttling qubit mover from src into dst: route distance,
// plus the chain-reordering work needed to bring the mover to the exit
// end (one SWAP for GS, per-position hops for IS — reorders are expensive
// in both fidelity and heat, so movers already sitting at the correct
// chain end are strongly preferred), plus a large penalty when the
// destination is full and would force an eviction. The congestion policy
// adds the transit ledger's pressure on dst to any score below that
// penalty.
func (cc *compilation) moveCost(mover, src, dst int) float64 {
	dist, err := cc.router.Distance(src, dst)
	if err != nil {
		return 1e18
	}
	route, err := cc.router.Route(src, dst)
	if err != nil {
		return 1e18
	}
	if steps := cc.reorderSteps(mover, src, route.SrcEnd); steps > 0 {
		if cc.opts.Reorder == models.GS {
			dist += 10
		} else {
			dist += 5 * float64(steps)
		}
	}
	// Graded occupancy penalty: steering gates away from nearly-full
	// destinations avoids eviction churn, which costs far more (a full
	// shuttle plus usually a reorder) than routing the other operand.
	switch free := cc.dev.Capacity - cc.chains.Len(dst); {
	case free <= 0:
		dist += 1e6
	case free == 1:
		dist += 24
	case free == 2:
		dist += 8
	}
	if cc.congestion && dist < 1e6 {
		// Full or unreachable destinations score at least 1e6 already:
		// pressure cannot make them worse.
		dist += congestionWeight * cc.pressure(dst)
	}
	return dist
}

// pickVictim returns the resident of t with the farthest next use
// (Belady's rule), excluding the keep set; ties keep the first (leftmost
// chain position) so the choice is deterministic. -1 means nothing is
// evictable.
func (cc *compilation) pickVictim(t int, keep []int) int {
	victim, victimUse := -1, -1
	for i := 0; i < cc.chains.Len(t); i++ {
		q := cc.chains.At(t, i)
		if contains(keep, q) {
			continue
		}
		if use := cc.nextUse(q); use > victimUse {
			victimUse = use
			victim = q
		}
	}
	return victim
}

// pickEvictionDest returns the trap with free capacity closest to t,
// preferring traps outside softAvoid (the remaining route) and falling
// back to any trap with room; -1 when the device is full.
func (cc *compilation) pickEvictionDest(t int, softAvoid []int) int {
	if dest := cc.nearestSpace(t, softAvoid); dest >= 0 {
		return dest
	}
	return cc.nearestSpace(t, nil)
}

// nearestSpace returns the trap with free capacity closest to t that is
// not in the avoid set, or -1 when none exists.
func (cc *compilation) nearestSpace(t int, avoid []int) int {
	best, bestDist := -1, 0.0
	for cand := 0; cand < cc.dev.NumTraps(); cand++ {
		if cand == t || cc.chains.Len(cand) >= cc.dev.Capacity || contains(avoid, cand) {
			continue
		}
		dist, err := cc.router.Distance(t, cand)
		if err != nil {
			continue
		}
		if best < 0 || dist < bestDist {
			best, bestDist = cand, dist
		}
	}
	return best
}
