package device

import (
	"container/heap"
	"fmt"
	"strings"
)

// The route weights are abstract whole-number lengths, not times: the
// compiler uses them only to pick among paths. They order a segment < a
// Y junction < an X junction < a photonic link < a trap pass-through. A
// junction crossing costs far less than passing through an intermediate
// trap, which merges into its chain, usually reorders it and splits back
// out, so routes take junction hops where both exist. A link is priced
// per traversal, however far apart the modules sit. Whole numbers keep
// every sum exact, so the search's distance is the route's price and
// Distance is symmetric.
const (
	segmentCost     = 1  // per shuttling segment moved through
	junctionYCost   = 20 // per Y-junction crossing
	junctionXCost   = 24 // per X-junction crossing
	linkCost        = 60 // per photonic link traversed
	trapTransitCost = 64 // per pass-through of an intermediate trap
)

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
	// cost is the search's distance to the destination, which Distance
	// returns.
	cost float64
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

// Router computes and caches shortest routes between traps of one device,
// with each route's cost. It is not safe for concurrent use.
type Router struct {
	dev *Device
	// routes[src] is built on the first request from src: routes[src][dst]
	// is the route to dst, nil for src itself and for unreachable traps.
	routes [][]*Route
}

// NewRouter returns a router over d.
func NewRouter(d *Device) *Router {
	return &Router{dev: d, routes: make([][]*Route, d.NumTraps())}
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
	if r.routes[src] == nil {
		r.routes[src] = r.dijkstra(src)
	}
	route := r.routes[src][dst]
	if route == nil {
		return nil, fmt.Errorf("device: no route from trap %d to trap %d", src, dst)
	}
	return route, nil
}

// Distance returns the route cost between two traps (0 when src == dst).
// Every cost is a whole number and the device graph is undirected, so
// Distance(a, b) == Distance(b, a).
func (r *Router) Distance(src, dst int) (float64, error) {
	if src == dst {
		return 0, nil
	}
	route, err := r.Route(src, dst)
	if err != nil {
		return 0, err
	}
	return route.cost, nil
}

func (r *Router) nodeCost(n NodeRef) float64 {
	if n.Kind == NodeTrap {
		return trapTransitCost
	}
	if r.dev.Junctions[n.Index].Kind() == JunctionX {
		return junctionXCost
	}
	return junctionYCost
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

// dijkstra computes the shortest routes from trap src to every other
// trap, with their costs, indexed by destination.
func (r *Router) dijkstra(src int) []*Route {
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
			segCost := float64(segmentCost)
			if seg.Kind == SegPhotonic {
				segCost = linkCost
			}
			nd := cur.dist + leave + segCost
			if old, ok := dist[next.Node]; !ok || nd < old {
				dist[next.Node] = nd
				parent[next.Node] = parentLink{prev: cur.node, seg: sid}
				heap.Push(pq, pqItem{next.Node, nd})
			}
		}
	}
	out := make([]*Route, r.dev.NumTraps())
	for dst := 0; dst < r.dev.NumTraps(); dst++ {
		if dst == src {
			continue
		}
		goal := NodeRef{NodeTrap, dst}
		cost, ok := dist[goal]
		if !ok {
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
		route := &Route{Src: src, cost: cost}
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
