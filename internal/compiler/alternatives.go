package compiler

import (
	"repro/internal/circuit"
)

// The alternative bundles: a lookahead-k gate orderer and a
// congestion-aware router. Each changes exactly one seam and inherits the
// baseline for the others, so a sweep over policies isolates the effect of
// the changed decision — the experiment the ROADMAP's policy-search item
// (Schoenberger et al., PAPERS.md) calls for.

func init() {
	Register(Bundle{
		Name: "lookahead",
		Description: "lookahead-4 gate order: among ready gates, prefer cheap-to-communicate " +
			"gates whose operands' upcoming partners are already co-located",
		NewOrder: func() GateOrderPolicy { return lookaheadOrder{k: lookaheadDepth} },
		NewPlace: func() PlacementPolicy { return baselinePlace{} },
		NewRoute: func() RoutePolicy { return baselineRoute{} },
	})
	Register(Bundle{
		Name: "congestion",
		Description: "congestion-aware routing: the occupancy penalty also charges live " +
			"in-flight transits toward a trap, decaying as they age out",
		NewOrder: func() GateOrderPolicy { return baselineOrder{} },
		NewPlace: func() PlacementPolicy { return baselinePlace{} },
		NewRoute: func() RoutePolicy { return &congestionRoute{} },
	})
}

// lookaheadDepth is how many upcoming gates per operand the lookahead
// orderer inspects when scoring a ready gate.
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
// where futurePartnersColocated counts, over the next k gates of each
// operand, partner qubits already sitting in one of the candidate's
// operand traps. Ties break to the lowest gate index, so the order — and
// therefore the whole compilation — is deterministic.
type lookaheadOrder struct{ k int }

func (p lookaheadOrder) NewSchedule(c *circuit.Circuit, st State) GateSchedule {
	dag := circuit.BuildDAG(c)
	s := &lookaheadSchedule{c: c, dag: dag, st: st, k: p.k, indeg: make([]int, dag.Len())}
	copy(s.indeg, dag.InDegree)
	for i, deg := range s.indeg {
		if deg == 0 {
			s.ready = append(s.ready, i)
		}
	}
	return s
}

// lookaheadSchedule owns the dependency bookkeeping of one compilation:
// an in-degree vector plus an unordered ready list the policy scores on
// every pick (ready sets of the paper workloads stay small, so the scan
// is cheap relative to the shuttles a better order saves).
type lookaheadSchedule struct {
	c     *circuit.Circuit
	dag   *circuit.DAG
	st    State
	k     int
	indeg []int
	ready []int
}

func (s *lookaheadSchedule) Next() int {
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
func (s *lookaheadSchedule) score(gi int) float64 {
	g := s.c.Gates[gi]
	if !g.Kind.IsTwoQubit() {
		return 0
	}
	a, b := g.Qubits[0], g.Qubits[1]
	ta, tb := s.st.TrapOf(a), s.st.TrapOf(b)
	score := 0.0
	if ta != tb {
		d, err := s.st.Distance(ta, tb)
		if err != nil {
			return 1e18
		}
		if rev, err := s.st.Distance(tb, ta); err == nil && rev < d {
			d = rev
		}
		score = d
	}
	score -= lookaheadAffinity * float64(s.affinity(a, gi, ta, tb)+s.affinity(b, gi, ta, tb))
	return score
}

// affinity counts, over the next k upcoming gates of qubit q (excluding
// gi itself), two-qubit partners already resident in trap ta or tb — the
// traps this gate could execute in.
func (s *lookaheadSchedule) affinity(q, gi, ta, tb int) int {
	count, seen := 0, 0
	for _, use := range s.st.FutureUses(q) {
		if use == gi {
			continue
		}
		if seen++; seen > s.k {
			break
		}
		g := s.c.Gates[use]
		if !g.Kind.IsTwoQubit() {
			continue
		}
		partner := g.Qubits[0]
		if partner == q {
			partner = g.Qubits[1]
		}
		if tp := s.st.TrapOf(partner); tp >= 0 && (tp == ta || tp == tb) {
			count++
		}
	}
	return count
}

// congestionWindow is the op-count horizon over which an observed transit
// keeps pressuring its arrival traps; within the window its weight decays
// linearly from 1 to 0.
const congestionWindow = 96

// congestionWeight converts decayed inbound-transit pressure into move
// cost, on the same scale as the baseline's graded occupancy penalty.
const congestionWeight = 12.0

// congestionRoute extends the baseline occupancy penalty with live
// in-flight traffic: every planned shuttle stamps the traps it will merge
// into, and MoveCost charges destinations by the decayed sum of those
// stamps. A trap that is not full *yet* but has several transits inbound
// scores like a nearly-full one, steering concurrent gate traffic apart —
// the congestion dimension the paper's static occupancy check cannot see.
type congestionRoute struct {
	baselineRoute
	arrivals []transitStamp
}

// transitStamp records one planned merge: which trap, stamped at which
// point of the compile-time op clock.
type transitStamp struct {
	trap int
	at   int
}

// ObserveShuttle implements ShuttleObserver: the compiler reports every
// committed shuttle with the traps its route merges into, stamped at the
// current op clock. Compilations are single-threaded, so no locking.
func (r *congestionRoute) ObserveShuttle(st State, mover, src, dst int, arrivals []int) {
	now := st.OpsEmitted()
	for _, t := range arrivals {
		r.arrivals = append(r.arrivals, transitStamp{trap: t, at: now})
	}
}

// pressure sums the decayed weight of stamps on trap t at the current op
// clock, pruning stamps that have fully decayed.
func (r *congestionRoute) pressure(st State, t int) float64 {
	now := st.OpsEmitted()
	live := r.arrivals[:0]
	sum := 0.0
	for _, s := range r.arrivals {
		age := now - s.at
		if age >= congestionWindow {
			continue
		}
		live = append(live, s)
		if s.trap == t {
			sum += 1 - float64(age)/congestionWindow
		}
	}
	r.arrivals = live
	return sum
}

// MoveCost is the baseline score with the occupancy penalty augmented by
// decayed inbound-transit pressure on the destination.
func (r *congestionRoute) MoveCost(st State, mover, src, dst int) float64 {
	cost := r.baselineRoute.MoveCost(st, mover, src, dst)
	if cost >= 1e6 {
		return cost // full or unreachable: pressure cannot make it worse
	}
	return cost + congestionWeight*r.pressure(st, dst)
}

var (
	_ ShuttleObserver = (*congestionRoute)(nil)
	_ GateOrderPolicy = lookaheadOrder{}
	_ RoutePolicy     = (*congestionRoute)(nil)
)
