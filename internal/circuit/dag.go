package circuit

// DAG is the data-dependency graph of a circuit. Node i corresponds to
// Gates[i]; an edge u->v means gate v must execute after gate u because
// they share a qubit and u precedes v in program order. Only the most
// recent writer per qubit is linked, so the edge set is the transitive
// reduction along each qubit's timeline.
type DAG struct {
	// Succs[i] lists the gates that directly depend on gate i.
	Succs [][]int
	// Preds[i] lists the gates gate i directly depends on.
	Preds [][]int
	// InDegree[i] is len(Preds[i]); kept separately so schedulers can
	// copy and decrement it without mutating the DAG.
	InDegree []int
}

// BuildDAG constructs the dependency DAG for c. The per-node edge lists
// are subslices of two flat arrays sized from the circuit's operand
// count, so construction performs a constant number of allocations
// regardless of gate count.
func BuildDAG(c *Circuit) *DAG {
	n := len(c.Gates)
	d := &DAG{
		Succs:    make([][]int, n),
		Preds:    make([][]int, n),
		InDegree: make([]int, n),
	}
	last := make([]int, c.NumQubits) // last gate index touching each qubit
	for i := range last {
		last[i] = -1
	}
	maxEdges := 0
	for i := range c.Gates {
		maxEdges += len(c.Gates[i].Qubits)
	}
	predsFlat := make([]int, 0, maxEdges)
	succCount := make([]int, n)
	for i, g := range c.Gates {
		base := len(predsFlat)
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 {
				// Dedupe: a multi-qubit gate may depend on one pred via
				// several qubits. The scan is over this gate's preds only.
				dup := false
				for _, e := range predsFlat[base:] {
					if e == p {
						dup = true
						break
					}
				}
				if !dup {
					predsFlat = append(predsFlat, p)
					succCount[p]++
				}
			}
			last[q] = i
		}
		if base < len(predsFlat) {
			d.Preds[i] = predsFlat[base:len(predsFlat):len(predsFlat)]
			d.InDegree[i] = len(predsFlat) - base
		}
	}
	succOff := make([]int, n+1)
	for i := 0; i < n; i++ {
		succOff[i+1] = succOff[i] + succCount[i]
	}
	succsFlat := make([]int, succOff[n])
	fill := succCount // reuse as write cursors
	copy(fill, succOff[:n])
	for i := 0; i < n; i++ {
		for _, p := range d.Preds[i] {
			succsFlat[fill[p]] = i
			fill[p]++
		}
	}
	for i := 0; i < n; i++ {
		if succOff[i] < succOff[i+1] {
			d.Succs[i] = succsFlat[succOff[i]:succOff[i+1]:succOff[i+1]]
		}
	}
	return d
}

// Len returns the number of nodes.
func (d *DAG) Len() int { return len(d.Succs) }

// TopoOrder returns the gates in a topological order that prefers lower
// gate indices among ready nodes (earliest-ready-gate-first, §VI). The
// second return is false if the graph has a cycle, which cannot happen for
// DAGs built by BuildDAG but is checked for safety.
func (d *DAG) TopoOrder() ([]int, bool) {
	n := d.Len()
	s := d.NewMinScheduler()
	order := make([]int, 0, n)
	for u := s.Next(); u >= 0; u = s.Next() {
		order = append(order, u)
	}
	return order, len(order) == n
}

// MinScheduler yields a topological order one gate at a time, always
// releasing the lowest-indexed ready gate next — the incremental form of
// TopoOrder. Over a DAG built by BuildDAG every edge runs from a lower
// gate index to a higher one, so the order is program order; the
// compiler's baseline gate order therefore counts through the gates
// instead, and the compiler tests pin the two orders to each other.
type MinScheduler struct {
	d     *DAG
	indeg []int
	h     intHeap
}

// NewMinScheduler starts an earliest-ready-gate-first traversal of d. The
// ready set is a min-heap over gate index, preallocated so ready bursts
// (wide layers) never reallocate.
func (d *DAG) NewMinScheduler() *MinScheduler {
	n := d.Len()
	s := &MinScheduler{
		d:     d,
		indeg: make([]int, n),
		h:     intHeap{a: make([]int, 0, n)},
	}
	copy(s.indeg, d.InDegree)
	for i, deg := range s.indeg {
		if deg == 0 {
			s.h.push(i)
		}
	}
	return s
}

// Next returns the next gate in the order and releases its dependents, or
// -1 when no gate is ready (the traversal is done, or — for a cyclic
// graph — stuck; callers detect cycles by counting yielded gates).
func (s *MinScheduler) Next() int {
	if s.h.len() == 0 {
		return -1
	}
	u := s.h.pop()
	for _, v := range s.d.Succs[u] {
		s.indeg[v]--
		if s.indeg[v] == 0 {
			s.h.push(v)
		}
	}
	return u
}

// Depth returns the length of the longest dependency chain (circuit depth
// counting every gate as one level). An empty circuit has depth 0.
func (d *DAG) Depth() int {
	order, ok := d.TopoOrder()
	if !ok {
		return -1
	}
	level := make([]int, d.Len())
	max := 0
	for _, u := range order {
		l := 1
		for _, p := range d.Preds[u] {
			if level[p]+1 > l {
				l = level[p] + 1
			}
		}
		level[u] = l
		if l > max {
			max = l
		}
	}
	return max
}

// intHeap is a minimal binary min-heap over ints, avoiding the
// container/heap interface boilerplate for this hot path.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(x int) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
