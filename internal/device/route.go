package device

import (
	"container/heap"
	"fmt"
	"strings"
)

// RouteCosts weights the shortest-path search. Costs are abstract route
// lengths, not times; the compiler uses them only to pick among paths.
// TrapTransit should exceed Junction so routes prefer junction hops over
// merging through an intermediate trap's chain when both exist.
type RouteCosts struct {
	Segment     float64 // per segment length unit
	JunctionY   float64 // per Y-junction crossing
	JunctionX   float64 // per X-junction crossing
	TrapTransit float64 // per pass-through of an intermediate trap
	// Link is the cost of one photonic interconnect traversal, length-
	// independent: remote entanglement plus teleportation is one timed
	// operation however far the modules sit apart.
	Link float64
}

// DefaultRouteCosts orders preferences segment < junction < trap transit
// < photonic link, roughly proportional to the operation times (Table I
// 5µs moves, ~100µs junction crossings, 160µs+ for a merge+split
// pass-through plus the chain reorder it usually triggers, and ~300µs to
// establish and consume remote entanglement), so routes stay inside a
// module unless the destination really is in another module.
func DefaultRouteCosts() RouteCosts {
	return RouteCosts{Segment: 1, JunctionY: 20, JunctionX: 24, TrapTransit: 64, Link: 60}
}

// Hop is one step of a route: traversing a segment and arriving at a node.
// EnterEnd is the chain end entered when Node is a trap.
type Hop struct {
	Segment  int
	Node     NodeRef
	EnterEnd End
}

// Transit describes passing through an intermediate trap: the ion merges
// into the chain at EnterEnd and must be split out at ExitEnd.
type Transit struct {
	Trap     int
	EnterEnd End
	ExitEnd  End
}

// Route is a source-to-destination shuttling path. The final hop's node is
// the destination trap; any earlier trap hops are pass-throughs.
type Route struct {
	Src    int
	SrcEnd End // chain end of the source trap where the ion exits
	Hops   []Hop
}

// PassThroughs lists the intermediate traps the route merges through, in
// order. Empty for junction-only routes.
func (r *Route) PassThroughs() []Transit {
	var out []Transit
	for _, h := range r.Hops[:max(0, len(r.Hops)-1)] {
		if h.Node.Kind != NodeTrap {
			continue
		}
		// Each trap end holds at most one segment, so a shortest path
		// always leaves a pass-through trap at the opposite end.
		out = append(out, Transit{Trap: h.Node.Index, EnterEnd: h.EnterEnd, ExitEnd: h.EnterEnd.Opposite()})
	}
	return out
}

// Junctions lists the junction nodes crossed, in order.
func (r *Route) Junctions() []int {
	var out []int
	for _, h := range r.Hops[:max(0, len(r.Hops)-1)] {
		if h.Node.Kind == NodeJunction {
			out = append(out, h.Node.Index)
		}
	}
	return out
}

// String renders the route as "T0 -s0-> J1 -s3-> T2".
func (r *Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "T%d", r.Src)
	for _, h := range r.Hops {
		fmt.Fprintf(&b, " -s%d-> %s", h.Segment, h.Node)
	}
	return b.String()
}

// Router computes and caches shortest routes between traps of one device.
// It is not safe for concurrent use.
type Router struct {
	dev   *Device
	costs RouteCosts
	// routes[src][dst] built lazily per source.
	routes map[int]map[int]*Route
}

// NewRouter returns a router over d with the given cost weights.
func NewRouter(d *Device, costs RouteCosts) *Router {
	return &Router{dev: d, costs: costs, routes: make(map[int]map[int]*Route)}
}

// Route returns the cached shortest route from trap src to trap dst.
// src == dst is an error: no shuttle is needed.
func (r *Router) Route(src, dst int) (*Route, error) {
	nt := r.dev.NumTraps()
	if src < 0 || src >= nt || dst < 0 || dst >= nt {
		return nil, fmt.Errorf("device: route %d->%d out of range [0,%d)", src, dst, nt)
	}
	if src == dst {
		return nil, fmt.Errorf("device: route %d->%d within one trap", src, dst)
	}
	if _, ok := r.routes[src]; !ok {
		r.routes[src] = r.dijkstra(src)
	}
	route, ok := r.routes[src][dst]
	if !ok {
		return nil, fmt.Errorf("device: no route from trap %d to trap %d", src, dst)
	}
	return route, nil
}

// Distance returns the route cost between two traps (0 when src == dst).
func (r *Router) Distance(src, dst int) (float64, error) {
	if src == dst {
		return 0, nil
	}
	route, err := r.Route(src, dst)
	if err != nil {
		return 0, err
	}
	cost := 0.0
	for _, h := range route.Hops[:len(route.Hops)-1] {
		cost += r.nodeCost(h.Node)
	}
	// Aggregate shuttle units before the single multiply (bit-identical to
	// the pre-photonic cost on link-free devices); links price per
	// traversal, not per unit.
	units, links := 0, 0
	for _, h := range route.Hops {
		if seg := r.dev.Segments[h.Segment]; seg.Kind == SegPhotonic {
			links++
		} else {
			units += seg.Length
		}
	}
	cost += float64(units) * r.costs.Segment
	cost += float64(links) * r.costs.Link
	return cost, nil
}

func (r *Router) nodeCost(n NodeRef) float64 {
	if n.Kind == NodeTrap {
		return r.costs.TrapTransit
	}
	if r.dev.Junctions[n.Index].Kind() == JunctionX {
		return r.costs.JunctionX
	}
	return r.costs.JunctionY
}

type pqItem struct {
	node NodeRef
	dist float64
}

type priorityQueue []pqItem

func (q priorityQueue) Len() int            { return len(q) }
func (q priorityQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q priorityQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *priorityQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *priorityQueue) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// dijkstra computes shortest routes from trap src to every other trap.
func (r *Router) dijkstra(src int) map[int]*Route {
	type parentLink struct {
		prev NodeRef
		seg  int
	}
	start := NodeRef{NodeTrap, src}
	dist := map[NodeRef]float64{start: 0}
	parent := map[NodeRef]parentLink{}
	done := map[NodeRef]bool{}
	pq := &priorityQueue{{start, 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(pqItem)
		if done[cur.node] {
			continue
		}
		done[cur.node] = true
		// Leaving an intermediate node costs its transit/crossing weight;
		// the source trap and a final destination are free to enter/exit.
		leave := 0.0
		if cur.node != start {
			leave = r.nodeCost(cur.node)
		}
		for _, sid := range r.dev.SegmentsAt(cur.node) {
			seg := r.dev.Segments[sid]
			next := seg.OtherSide(cur.node)
			segCost := float64(seg.Length) * r.costs.Segment
			if seg.Kind == SegPhotonic {
				segCost = r.costs.Link
			}
			nd := cur.dist + leave + segCost
			if old, ok := dist[next.Node]; !ok || nd < old {
				dist[next.Node] = nd
				parent[next.Node] = parentLink{prev: cur.node, seg: sid}
				heap.Push(pq, pqItem{next.Node, nd})
			}
		}
	}
	out := make(map[int]*Route)
	for dst := 0; dst < r.dev.NumTraps(); dst++ {
		if dst == src {
			continue
		}
		goal := NodeRef{NodeTrap, dst}
		if _, ok := dist[goal]; !ok {
			continue
		}
		// Walk parents back to src, then reverse.
		var rev []Hop
		node := goal
		for node != start {
			link := parent[node]
			hop := Hop{Segment: link.seg, Node: node}
			if node.Kind == NodeTrap {
				ep, _ := r.dev.Segments[link.seg].EndpointAt(node)
				hop.EnterEnd = ep.TrapEnd
			}
			rev = append(rev, hop)
			node = link.prev
		}
		route := &Route{Src: src}
		for i := len(rev) - 1; i >= 0; i-- {
			route.Hops = append(route.Hops, rev[i])
		}
		firstSeg := r.dev.Segments[route.Hops[0].Segment]
		ep, _ := firstSeg.EndpointAt(start)
		route.SrcEnd = ep.TrapEnd
		out[dst] = route
	}
	return out
}
