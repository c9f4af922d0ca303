package compiler

import (
	"repro/internal/circuit"
	"repro/internal/device"
)

// The alternative policies: a lookahead-k gate order and a
// congestion-aware move cost. Each changes exactly one decision and keeps
// the baseline for the others, so a sweep over policies isolates the
// effect of the changed decision — the experiment the ROADMAP's
// policy-search item (Schoenberger et al., PAPERS.md) calls for.

// lookaheadDepth is how many upcoming gates per operand the lookahead
// order inspects when scoring a ready gate.
const lookaheadDepth = 4

// lookaheadAffinity is the score credit per upcoming partner qubit already
// co-located with a candidate gate's operand. It outweighs a small route
// distance, so a slightly-farther gate whose neighborhood is assembled can
// fire before a nearer gate whose partners are scattered.
const lookaheadAffinity = 2.0

// lookaheadOrder picks, among ready gates, the one minimizing
//
//	score = commDistance − lookaheadAffinity · futurePartnersColocated
//
// where futurePartnersColocated counts, over the next lookaheadDepth gates
// of each operand, partner qubits already sitting in one of the
// candidate's operand traps. Ties break to the lowest gate index, so the
// order — and therefore the whole compilation — is deterministic.
//
// It owns the dependency bookkeeping of one compilation: an in-degree
// vector plus an unordered ready list it scores on every pick (ready sets
// of the paper workloads stay small, so the scan is cheap relative to the
// shuttles a better order saves).
type lookaheadOrder struct {
	cc    *compilation
	dag   *circuit.DAG
	indeg []int
	ready []int
}

func newLookaheadOrder(cc *compilation) *lookaheadOrder {
	dag := circuit.BuildDAG(cc.circ)
	s := &lookaheadOrder{cc: cc, dag: dag, indeg: make([]int, dag.Len())}
	copy(s.indeg, dag.InDegree)
	for i, deg := range s.indeg {
		if deg == 0 {
			s.ready = append(s.ready, i)
		}
	}
	return s
}

func (s *lookaheadOrder) Next() int {
	if len(s.ready) == 0 {
		return -1
	}
	best, bestScore := -1, 0.0
	for _, gi := range s.ready {
		score := s.score(gi)
		if best < 0 || score < bestScore || (score == bestScore && gi < best) {
			best, bestScore = gi, score
		}
	}
	for i, gi := range s.ready {
		if gi == best {
			s.ready[i] = s.ready[len(s.ready)-1]
			s.ready = s.ready[:len(s.ready)-1]
			break
		}
	}
	for _, v := range s.dag.Succs[best] {
		s.indeg[v]--
		if s.indeg[v] == 0 {
			s.ready = append(s.ready, v)
		}
	}
	return best
}

// score rates readiness of gate gi under the current placement. Barriers,
// single-qubit gates, measurements and co-located two-qubit gates are
// free; cross-trap gates pay their route distance minus the affinity of
// their operands' upcoming partners.
func (s *lookaheadOrder) score(gi int) float64 {
	g := s.cc.circ.Gates[gi]
	if !g.Kind.IsTwoQubit() {
		return 0
	}
	a, b := g.Qubits[0], g.Qubits[1]
	ta, tb := s.cc.chains.Trap(a), s.cc.chains.Trap(b)
	score := 0.0
	if ta != tb {
		d, err := s.cc.router.Distance(ta, tb)
		if err != nil {
			return 1e18
		}
		if rev, err := s.cc.router.Distance(tb, ta); err == nil && rev < d {
			d = rev
		}
		score = d
	}
	score -= lookaheadAffinity * float64(s.affinity(a, gi, ta, tb)+s.affinity(b, gi, ta, tb))
	return score
}

// affinity counts, over the next lookaheadDepth gates still to be emitted
// on qubit q (excluding gi itself), two-qubit partners already resident in
// trap ta or tb — the traps this gate could execute in.
func (s *lookaheadOrder) affinity(q, gi, ta, tb int) int {
	cc := s.cc
	count, seen := 0, 0
	for _, use := range cc.useLists[q][cc.useCounts[q]:] {
		if use == gi {
			continue
		}
		if seen++; seen > lookaheadDepth {
			break
		}
		g := cc.circ.Gates[use]
		if !g.Kind.IsTwoQubit() {
			continue
		}
		partner := g.Qubits[0]
		if partner == q {
			partner = g.Qubits[1]
		}
		if tp := cc.chains.Trap(partner); tp >= 0 && (tp == ta || tp == tb) {
			count++
		}
	}
	return count
}

// congestionWindow is the op-count horizon over which a stamped transit
// keeps pressuring its arrival trap; within the window its weight decays
// linearly from 1 to 0.
const congestionWindow = 96

// congestionWeight converts decayed inbound-transit pressure into move
// cost, on the same scale as the baseline's graded occupancy penalty.
const congestionWeight = 12.0

// transitStamp is one entry of the congestion policy's transit ledger: a
// planned merge into trap, stamped at op clock at (the number of ops
// emitted so far). moveCost charges destinations by the decayed sum of
// their stamps, so a trap that is not full *yet* but has several transits
// inbound scores like a nearly-full one, steering concurrent gate traffic
// apart — the congestion dimension the paper's static occupancy check
// cannot see.
type transitStamp struct {
	trap int
	at   int
}

// stampArrivals records every trap route merges into (pass-throughs and
// the destination, in route order) at the current op clock.
func (cc *compilation) stampArrivals(route *device.Route) {
	now := len(cc.ops)
	for _, hop := range route.Hops {
		if hop.Node.Kind == device.NodeTrap {
			cc.arrivals = append(cc.arrivals, transitStamp{trap: hop.Node.Index, at: now})
		}
	}
}

// pressure sums the decayed weight of stamps on trap t at the current op
// clock, pruning stamps that have fully decayed.
func (cc *compilation) pressure(t int) float64 {
	now := len(cc.ops)
	live := cc.arrivals[:0]
	sum := 0.0
	for _, s := range cc.arrivals {
		age := now - s.at
		if age >= congestionWindow {
			continue
		}
		live = append(live, s)
		if s.trap == t {
			sum += 1 - float64(age)/congestionWindow
		}
	}
	cc.arrivals = live
	return sum
}
