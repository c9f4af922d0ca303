package compiler

import (
	"math/bits"
	"slices"

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
// Ready sets are wide: QFT@128 on L8 keeps a mean of 127 gates ready,
// almost all of them free. So a pick costs what changed since the last
// one, not the ready set. A ready gate that is not two-qubit scores
// exactly 0, so only the lowest-indexed of them can win: they wait in a
// bit set by gate index, searched from a cursor below which none lies.
// Each ready two-qubit gate keeps its score and the qubits it read (see
// readyPair), and is rescored only when one of them has merged into a
// trap since. The pick is still the least (score, gate index) over the
// whole ready set, from the same score function.
type lookaheadOrder struct {
	cc    *compilation
	dag   *dag
	indeg []int32
	// free has bit i set when gate i is ready and not two-qubit; nfree
	// counts them, and none lies below gate lo.
	free      []uint64
	nfree, lo int
	pairs     []readyPair // the ready two-qubit gates
}

// readyPair is a ready two-qubit gate and its score, taken at op count
// scoredAt (-1 before its first scoring). The score reads the traps of
// the watched qubits: the gate's operands, then the partners of their
// next lookaheadDepth uses. Only Gate1, Gate2 and Measure ops advance
// the use cursors, so that set is fixed while the gate is ready.
type readyPair struct {
	gi       int32
	scoredAt int32
	score    float64
	n        int32 // watched qubits in watch
	watch    [2 + 2*lookaheadDepth]int32
}

func newLookaheadOrder(cc *compilation) schedule {
	d := cc.an.lookaheadDAG()
	s := &lookaheadOrder{
		cc: cc, dag: d, indeg: slices.Clone(d.indeg),
		free: make([]uint64, (len(d.indeg)+63)/64), lo: len(d.indeg),
	}
	cc.merged = make([]int32, cc.circ.NumQubits)
	for i, deg := range s.indeg {
		if deg == 0 {
			s.release(int32(i))
		}
	}
	return s
}

// release adds gate gi to the ready set. A two-qubit gate is first scored
// at the next pick, after the picked gate's ops are emitted: until then
// the use cursor of an operand it shares with the picked gate still
// points at the picked gate.
func (s *lookaheadOrder) release(gi int32) {
	if s.cc.circ.Gates[gi].Kind.IsTwoQubit() {
		s.pairs = append(s.pairs, readyPair{gi: gi, scoredAt: -1})
		return
	}
	s.free[gi/64] |= 1 << (gi % 64)
	s.nfree++
	s.lo = min(s.lo, int(gi))
}

func (s *lookaheadOrder) Next() int {
	cc := s.cc
	best, bestScore := -1, 0.0 // into pairs
	for i := range s.pairs {
		p := &s.pairs[i]
		if p.scoredAt < 0 {
			s.watch(p)
			s.score(p)
		} else if cc.lastMerge > p.scoredAt && s.moved(p) {
			s.score(p)
		}
		if best < 0 || p.score < bestScore || (p.score == bestScore && p.gi < s.pairs[best].gi) {
			best, bestScore = i, p.score
		}
	}
	first := int32(-1) // the least ready gate that is not two-qubit
	if s.nfree > 0 {
		first = s.firstFree()
	}
	var gi int32
	switch {
	case first >= 0 && (best < 0 || bestScore > 0 || (bestScore == 0 && first < s.pairs[best].gi)):
		gi = first
		s.free[gi/64] &^= 1 << (gi % 64)
		s.nfree--
	case best >= 0:
		gi = s.pairs[best].gi
		s.pairs[best] = s.pairs[len(s.pairs)-1]
		s.pairs = s.pairs[:len(s.pairs)-1]
	default:
		return -1
	}
	for _, v := range s.dag.succs[s.dag.succOff[gi]:s.dag.succOff[gi+1]] {
		if s.indeg[v]--; s.indeg[v] == 0 {
			s.release(v)
		}
	}
	return int(gi)
}

// watch records p's watched qubits: its operands, then for each operand
// the two-qubit partners among its next lookaheadDepth uses after p.
func (s *lookaheadOrder) watch(p *readyPair) {
	cc := s.cc
	g := cc.circ.Gates[p.gi]
	p.watch[0], p.watch[1] = int32(g.Qubit(0)), int32(g.Qubit(1))
	n := int32(2)
	for _, q := range p.watch[:2] {
		seen := 0
		for _, use := range cc.an.usesOf(int(q))[cc.useCounts[q]:] {
			if use == p.gi {
				continue
			}
			if seen++; seen > lookaheadDepth {
				break
			}
			u := cc.circ.Gates[use]
			if !u.Kind.IsTwoQubit() {
				continue
			}
			partner := int32(u.Qubit(0))
			if partner == q {
				partner = int32(u.Qubit(1))
			}
			p.watch[n] = partner
			n++
		}
	}
	p.n = n
}

// moved reports whether a qubit p watches has merged into a trap since p
// was scored.
func (s *lookaheadOrder) moved(p *readyPair) bool {
	for _, q := range p.watch[:p.n] {
		if s.cc.merged[q] > p.scoredAt {
			return true
		}
	}
	return false
}

// score rates p under the current placement: a co-located gate is free,
// a cross-trap gate pays its route distance, and either is credited
// lookaheadAffinity for each watched partner resident in one of its
// operands' traps.
func (s *lookaheadOrder) score(p *readyPair) {
	cc := s.cc
	p.scoredAt = int32(len(cc.ops))
	ta, tb := cc.chains.Trap(int(p.watch[0])), cc.chains.Trap(int(p.watch[1]))
	p.score = 0
	if ta != tb {
		d, err := cc.router.Distance(ta, tb)
		if err != nil {
			p.score = 1e18
			return
		}
		p.score = d
	}
	count := 0
	for _, q := range p.watch[2:p.n] {
		if tp := cc.chains.Trap(int(q)); tp >= 0 && (tp == ta || tp == tb) {
			count++
		}
	}
	p.score -= lookaheadAffinity * float64(count)
}

// firstFree returns the least ready gate that is not two-qubit, moving lo
// up to it. There must be one.
func (s *lookaheadOrder) firstFree() int32 {
	w := s.lo / 64
	x := s.free[w] &^ (1<<(s.lo%64) - 1)
	for x == 0 {
		w++
		x = s.free[w]
	}
	s.lo = 64*w + bits.TrailingZeros64(x)
	return int32(s.lo)
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
