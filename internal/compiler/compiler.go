// Package compiler implements the QCCD backend compiler of §VI. It maps
// program qubits onto traps with a greedy first-use-order heuristic
// (leaving buffer slots for incoming shuttles), schedules gates earliest-
// ready-first (over a circuit's dependency DAG that is program order, so
// the baseline builds no DAG), routes shuttles along shortest device
// paths (inserting the extra merge/reorder/split sequences that linear
// topologies require at intermediate traps, Figure 4), inserts
// chain-reordering operations for the configured method (GS or IS), and
// emits a dependency-annotated isa.Program.
//
// Dependency discipline: every op depends on the previous op touching each
// of its qubits, and every chain-structure-changing op (split, merge,
// swap) additionally depends on the previous structural op of its trap.
// The per-trap structural total order makes chain membership, chain
// ordering and capacity occupancy at each structural op identical between
// compile time and simulation time, which is what guarantees that splits
// find their ion at the chain end and merges never overflow a trap. The
// simulator grants contended resources to the lowest op ID first, which
// realizes the paper's "prioritize earlier gates" congestion policy and —
// because ops hold at most one resource — cannot deadlock.
//
// The hot paths are index-based: chains are fixed-capacity ring buffers
// with an incremental qubit→slot index, so qubit positions, end
// insertions and end removals are O(1) instead of copying slices, and op
// dependency sets are deduplicated through a three-entry scratch instead
// of a per-op map. An op holds its operands and dependencies inline (see
// isa.Op), so emitting one allocates nothing beyond the op list's
// amortized growth, and the list holds no pointers for the collector to
// scan.
//
// The three decision heuristics — gate issue order, initial placement,
// and shuttle routing/eviction — are policy seams (see policy.go): the
// machinery in this file is policy-agnostic and delegates those choices
// to the bundle selected by Options.Policy. baseline.go holds the
// paper's heuristics, extracted verbatim.
package compiler

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

// Options configures a compilation.
type Options struct {
	// Reorder selects the chain reordering method (GS or IS, §IV.C).
	Reorder models.ReorderMethod
	// BufferSlots is the per-trap headroom the mapper leaves for incoming
	// shuttles (the paper uses 2). It is reduced automatically when the
	// device would otherwise not fit the program.
	BufferSlots int
	// RouteCosts weights the shuttle router's shortest-path search.
	RouteCosts device.RouteCosts
	// MaxEvictionDepth bounds recursive trap-overflow rebalancing.
	MaxEvictionDepth int
	// BalancedMapping spreads qubits over all traps in equal contiguous
	// blocks instead of the paper's sequential fill-to-capacity. Shorter
	// chains speed up FM gates but use more inter-trap communication; the
	// BenchmarkAblationMapping ablation quantifies the trade.
	BalancedMapping bool
	// Policy selects the registered policy bundle (gate order, placement,
	// routing). The zero value is the baseline — the paper's heuristics.
	Policy models.PolicyName
}

// DefaultOptions returns the paper's configuration: GS reordering and two
// buffer slots per trap.
func DefaultOptions() Options {
	return Options{
		Reorder:          models.GS,
		BufferSlots:      2,
		RouteCosts:       device.DefaultRouteCosts(),
		MaxEvictionDepth: 16,
	}
}

// Compile lowers circuit c onto device d, producing an executable program.
func Compile(c *circuit.Circuit, d *device.Device, opts Options) (*isa.Program, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	if opts.MaxEvictionDepth <= 0 {
		opts.MaxEvictionDepth = 16
	}
	if c.NumQubits > d.MaxIons() {
		return nil, fmt.Errorf("compiler: %d qubits exceed device capacity %d (%s)",
			c.NumQubits, d.MaxIons(), d.Name)
	}
	bundle, err := Lookup(opts.Policy)
	if err != nil {
		return nil, err
	}
	cc := &compilation{
		circ:   c,
		dev:    d,
		opts:   opts,
		router: device.NewRouter(d, opts.RouteCosts),
		order:  bundle.NewOrder(),
		route:  bundle.NewRoute(),
		trapOf: make([]int, c.NumQubits),
		qSlot:  make([]int, c.NumQubits),
	}
	cc.observer, _ = cc.route.(ShuttleObserver)
	// Across the paper suite the op list runs 1.05-1.25× the gate count
	// (communication ops are amortized by multi-gate stays); seeding at
	// 1.5× absorbs nearly all growth-copy churn without zeroing memory
	// that shuttle-light workloads never touch.
	cc.ops = make([]isa.Op, 0, 3*len(c.Gates)/2+16)
	if err := cc.mapQubits(bundle.NewPlace()); err != nil {
		return nil, err
	}
	if err := cc.run(); err != nil {
		return nil, err
	}
	prog := &isa.Program{
		Name:          c.Name,
		NumQubits:     c.NumQubits,
		DeviceName:    d.Name,
		InitialLayout: cc.initialLayout,
		Ops:           cc.ops,
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: produced invalid program: %w", err)
	}
	return prog, nil
}

// trapChain is one trap's live chain during compilation: a fixed-capacity
// ring buffer of qubit IDs (position 0 = left end). Together with the
// compilation's qubit→slot index, positions and end operations are O(1).
type trapChain struct {
	buf  []int
	head int
	n    int
}

// slotAt returns the ring slot of chain position i.
func (c *trapChain) slotAt(i int) int {
	s := c.head + i
	if s >= len(c.buf) {
		s -= len(c.buf)
	}
	return s
}

// at returns the qubit at chain position i.
func (c *trapChain) at(i int) int { return c.buf[c.slotAt(i)] }

// compilation holds the mutable state of one Compile call. It implements
// State (see state.go), the read-only view the policy seams consult.
type compilation struct {
	circ   *circuit.Circuit
	dev    *device.Device
	opts   Options
	router *device.Router

	order    GateOrderPolicy
	route    RoutePolicy
	observer ShuttleObserver // route, if it observes shuttles; else nil

	chains        []trapChain // per trap: live chain (0 = left end)
	trapOf        []int       // qubit -> trap (-1 while in transit)
	qSlot         []int       // qubit -> ring slot within its trap's chain
	initialLayout [][]int

	ops           []isa.Op
	lastOfQubit   []int // qubit -> last op ID touching it (-1 none)
	lastStructure []int // trap -> last structural op ID (-1 none)

	useLists  [][]int // qubit -> sorted gate indices of its IR gates
	useCounts []int   // qubit -> IR gates already emitted (cursor into useLists)
}

// mapQubits asks the placement policy for the initial qubit→trap layout,
// validates it (every program qubit exactly once, no chain over capacity),
// and installs it into the compilation's chain structures and use lists.
func (cc *compilation) mapQubits(place PlacementPolicy) error {
	c, d := cc.circ, cc.dev
	layout, err := place.Place(c, d, cc.opts)
	if err != nil {
		return fmt.Errorf("compiler: placement: %w", err)
	}
	if len(layout) != d.NumTraps() {
		return fmt.Errorf("compiler: placement returned %d chains for %d traps",
			len(layout), d.NumTraps())
	}
	seen := make([]bool, c.NumQubits)
	placed := 0
	for t, chain := range layout {
		if len(chain) > d.Capacity {
			return fmt.Errorf("compiler: placement overfills trap %d: %d ions, capacity %d",
				t, len(chain), d.Capacity)
		}
		for _, q := range chain {
			if q < 0 || q >= c.NumQubits {
				return fmt.Errorf("compiler: placement names unknown qubit %d", q)
			}
			if seen[q] {
				return fmt.Errorf("compiler: placement assigns qubit %d twice", q)
			}
			seen[q] = true
			placed++
		}
	}
	if placed != c.NumQubits {
		return fmt.Errorf("compiler: placement placed %d of %d qubits", placed, c.NumQubits)
	}
	cc.chains = make([]trapChain, d.NumTraps())
	for t := range cc.chains {
		cc.chains[t].buf = make([]int, d.Capacity)
	}
	for t, chain := range layout {
		ch := &cc.chains[t]
		for _, q := range chain {
			slot := ch.slotAt(ch.n)
			ch.buf[slot] = q
			ch.n++
			cc.trapOf[q] = t
			cc.qSlot[q] = slot
		}
	}
	cc.initialLayout = make([][]int, d.NumTraps())
	for t := range cc.chains {
		ch := &cc.chains[t]
		layout := make([]int, ch.n)
		for i := 0; i < ch.n; i++ {
			layout[i] = ch.at(i)
		}
		cc.initialLayout[t] = layout
	}
	cc.lastOfQubit = make([]int, c.NumQubits)
	for i := range cc.lastOfQubit {
		cc.lastOfQubit[i] = -1
	}
	cc.lastStructure = make([]int, d.NumTraps())
	for i := range cc.lastStructure {
		cc.lastStructure[i] = -1
	}
	// Per-qubit use lists as subslices of one flat counted array.
	cc.useLists = make([][]int, c.NumQubits)
	counts := make([]int, c.NumQubits)
	total := 0
	for gi := range c.Gates {
		if c.Gates[gi].Kind == circuit.GateBarrier {
			continue
		}
		for _, q := range c.Gates[gi].Qubits {
			counts[q]++
			total++
		}
	}
	flat := make([]int, total)
	off := 0
	for q, n := range counts {
		cc.useLists[q] = flat[off : off : off+n]
		off += n
	}
	for gi, g := range c.Gates {
		if g.Kind == circuit.GateBarrier {
			continue
		}
		for _, q := range g.Qubits {
			cc.useLists[q] = append(cc.useLists[q], gi)
		}
	}
	cc.useCounts = make([]int, c.NumQubits)
	return nil
}

// run emits ops gate by gate in the order the gate-order policy yields
// (the baseline is earliest-ready-first, which is program order). The
// schedule is consumed incrementally so the policy sees the placement as
// it evolves.
func (cc *compilation) run() error {
	sched := cc.order.NewSchedule(cc.circ, cc)
	emitted := 0
	for gi := sched.Next(); gi >= 0; gi = sched.Next() {
		if gi >= len(cc.circ.Gates) {
			return fmt.Errorf("compiler: schedule yielded gate %d of %d", gi, len(cc.circ.Gates))
		}
		emitted++
		g := cc.circ.Gates[gi]
		switch {
		case g.Kind == circuit.GateBarrier:
			// Barriers only constrain the IR schedule; the schedule
			// already respects their ordering, so they emit nothing.
		case g.Kind == circuit.GateMeasure:
			q := g.Qubits[0]
			cc.addOp(isa.Op{
				Kind: isa.OpMeasure, Trap: int32(cc.trapOf[q]),
				Gate: g.Kind, GateIndex: int32(gi),
			}, false, q)
		case g.Kind.IsSingleQubit():
			q := g.Qubits[0]
			cc.addOp(isa.Op{
				Kind: isa.OpGate1, Trap: int32(cc.trapOf[q]),
				Gate: g.Kind, Param: g.Param, GateIndex: int32(gi),
			}, false, q)
		case g.Kind.IsTwoQubit():
			if err := cc.twoQubit(gi, g); err != nil {
				return err
			}
		default:
			return fmt.Errorf("compiler: gate %d: unsupported kind %s", gi, g.Kind)
		}
	}
	if emitted != len(cc.circ.Gates) {
		return fmt.Errorf("compiler: dependency graph has a cycle")
	}
	return nil
}

// twoQubit co-locates the operands (shuttling one of them if needed) and
// emits the entangling gate. Which operand moves is the route policy's
// call: the cheaper-scoring direction wins, ties moving the first operand.
func (cc *compilation) twoQubit(gi int, g circuit.Gate) error {
	a, b := g.Qubits[0], g.Qubits[1]
	ta, tb := cc.trapOf[a], cc.trapOf[b]
	if ta != tb {
		mover, src, dst := a, ta, tb
		if cc.route.MoveCost(cc, b, tb, ta) < cc.route.MoveCost(cc, a, ta, tb) {
			mover, src, dst = b, tb, ta
		}
		if err := cc.shuttle(mover, src, dst, gi, 0, []int{a, b}); err != nil {
			return fmt.Errorf("compiler: gate %d (%s): %w", gi, g, err)
		}
	}
	cc.addOp(isa.Op{
		Kind: isa.OpGate2, Trap: int32(cc.trapOf[a]),
		Gate: g.Kind, Param: g.Param, GateIndex: int32(gi),
	}, false, a, b)
	return nil
}

// reorderSteps returns how many positions separate qubit q from the given
// end of its trap's chain.
func (cc *compilation) reorderSteps(q, t int, end device.End) int {
	pos := cc.position(q, t)
	if end == device.Left {
		return pos
	}
	return cc.chains[t].n - 1 - pos
}

// shuttle moves qubit q from trap src to trap dst along the shortest
// route, inserting reorders, transit merges/splits and evictions as
// needed. gi is the gate index motivating the shuttle (-1 for evictions).
// The keep qubits — the gate operands plus every qubit already being
// shuttled further up the recursion stack — are never eviction victims.
//
// Space for q is made just in time, immediately before each merge: because
// q is off-chain while in transit, the device always has at least one free
// slot, so a nearest-space eviction can always make progress. Eviction
// destinations prefer traps off the remaining route to limit churn.
func (cc *compilation) shuttle(q, src, dst, gi, depth int, keep []int) error {
	if depth > cc.opts.MaxEvictionDepth {
		return fmt.Errorf("eviction recursion exceeded depth %d", cc.opts.MaxEvictionDepth)
	}
	route, err := cc.router.Route(src, dst)
	if err != nil {
		return err
	}
	routeTraps := []int{dst}
	for _, tr := range route.PassThroughs() {
		routeTraps = append(routeTraps, tr.Trap)
	}
	if cc.observer != nil {
		arrivals := make([]int, 0, len(routeTraps))
		for _, hop := range route.Hops {
			if hop.Node.Kind == device.NodeTrap {
				arrivals = append(arrivals, hop.Node.Index)
			}
		}
		cc.observer.ObserveShuttle(cc, q, src, dst, arrivals)
	}
	protected := make([]int, 0, len(keep)+1)
	protected = append(protected, keep...)
	protected = append(protected, q)

	cc.reorderToEnd(q, src, route.SrcEnd, gi)
	cc.addOp(isa.Op{
		Kind: isa.OpSplit, Trap: int32(src), End: route.SrcEnd, GateIndex: int32(gi),
	}, true, q)
	cc.removeFromChain(q, src)

	for _, hop := range route.Hops {
		moveKind := isa.OpMove
		if cc.dev.Segments[hop.Segment].Kind == device.SegPhotonic {
			// A photonic interconnect is traversed as one timed link
			// transit (remote entanglement + teleportation), not a
			// per-unit shuttle.
			moveKind = isa.OpLinkTransit
		}
		cc.addOp(isa.Op{
			Kind: moveKind, Trap: -1, Segment: int32(hop.Segment), GateIndex: int32(gi),
		}, false, q)
		switch hop.Node.Kind {
		case device.NodeJunction:
			cc.addOp(isa.Op{
				Kind: isa.OpJunctionCross, Trap: -1,
				Junction: int32(hop.Node.Index), GateIndex: int32(gi),
			}, false, q)
		case device.NodeTrap:
			t := hop.Node.Index
			for cc.chains[t].n >= cc.dev.Capacity {
				if err := cc.evictOne(t, routeTraps, depth, protected); err != nil {
					return err
				}
			}
			cc.addOp(isa.Op{
				Kind: isa.OpMerge, Trap: int32(t), End: hop.EnterEnd, GateIndex: int32(gi),
			}, true, q)
			cc.insertIntoChain(q, t, hop.EnterEnd)
			if t != dst {
				// Pass-through: reposition to the far end and split back
				// out (Figure 4).
				exit := hop.EnterEnd.Opposite()
				cc.reorderToEnd(q, t, exit, gi)
				cc.addOp(isa.Op{
					Kind: isa.OpSplit, Trap: int32(t), End: exit, GateIndex: int32(gi),
				}, true, q)
				cc.removeFromChain(q, t)
			}
		}
	}
	return nil
}

// evictOne moves one ion out of full trap t to make room. The route
// policy picks both the victim (the baseline uses Belady's farthest-next-
// use rule) and its destination (baseline: nearest trap with room,
// preferring traps outside softAvoid — the remaining shuttle route).
func (cc *compilation) evictOne(t int, softAvoid []int, depth int, keep []int) error {
	victim := cc.route.PickVictim(cc, t, keep)
	if victim < 0 {
		return fmt.Errorf("trap %d full and nothing evictable", t)
	}
	dest := cc.route.PickEvictionDest(cc, t, softAvoid)
	if dest < 0 {
		return fmt.Errorf("device full: no trap has room to rebalance from trap %d", t)
	}
	return cc.shuttle(victim, t, dest, -1, depth+1, keep)
}

// nextUse returns the next gate index that will use q, or a large sentinel
// when q is never used again. Gates on one qubit are emitted in program
// order, so the per-qubit emitted-use count is a cursor into useLists.
func (cc *compilation) nextUse(q int) int {
	uses := cc.useLists[q]
	if cc.useCounts[q] >= len(uses) {
		return 1 << 30
	}
	return uses[cc.useCounts[q]]
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// swapInChain exchanges the chain slots of two resident qubits of trap t.
func (cc *compilation) swapInChain(t, a, b int) {
	ch := &cc.chains[t]
	sa, sb := cc.qSlot[a], cc.qSlot[b]
	ch.buf[sa], ch.buf[sb] = b, a
	cc.qSlot[a], cc.qSlot[b] = sb, sa
}

// reorderToEnd brings qubit q to the given chain end of trap t using the
// configured reordering method, emitting the necessary ops.
func (cc *compilation) reorderToEnd(q, t int, end device.End, gi int) {
	ch := &cc.chains[t]
	pos := cc.position(q, t)
	target := 0
	if end == device.Right {
		target = ch.n - 1
	}
	if pos == target {
		return
	}
	switch cc.opts.Reorder {
	case models.GS:
		other := ch.at(target)
		cc.addOp(isa.Op{
			Kind: isa.OpSwapGS, Trap: int32(t), GateIndex: int32(gi),
		}, true, q, other)
		cc.swapInChain(t, q, other)
	case models.IS:
		step := 1
		if target < pos {
			step = -1
		}
		for p := pos; p != target; p += step {
			neighbor := ch.at(p + step)
			cc.addOp(isa.Op{
				Kind: isa.OpIonSwap, Trap: int32(t), GateIndex: int32(gi),
			}, true, q, neighbor)
			cc.swapInChain(t, q, neighbor)
		}
	}
}

// position returns q's index within trap t's chain.
func (cc *compilation) position(q, t int) int {
	if cc.trapOf[q] != t {
		panic(fmt.Sprintf("compiler: qubit %d not in trap %d", q, t))
	}
	ch := &cc.chains[t]
	p := cc.qSlot[q] - ch.head
	if p < 0 {
		p += len(ch.buf)
	}
	return p
}

// removeFromChain detaches q from trap t's chain end.
func (cc *compilation) removeFromChain(q, t int) {
	ch := &cc.chains[t]
	switch pos := cc.position(q, t); {
	case ch.n > 0 && pos == 0:
		ch.head = ch.slotAt(1)
		ch.n--
	case ch.n > 0 && pos == ch.n-1:
		ch.n--
	default:
		panic(fmt.Sprintf("compiler: split of qubit %d not at an end of trap %d", q, t))
	}
	cc.trapOf[q] = -1
}

// insertIntoChain attaches q at the given end of trap t's chain.
func (cc *compilation) insertIntoChain(q, t int, end device.End) {
	ch := &cc.chains[t]
	var slot int
	if end == device.Left {
		slot = ch.head - 1
		if slot < 0 {
			slot += len(ch.buf)
		}
		ch.head = slot
	} else {
		slot = ch.slotAt(ch.n)
	}
	ch.buf[slot] = q
	ch.n++
	cc.trapOf[q] = t
	cc.qSlot[q] = slot
}

// addOp finalizes an op on the given operand qubits: assigns its ID,
// derives its dependencies, updates the per-qubit and per-trap
// bookkeeping, and appends it.
//
// An op has at most three dependency sources (two operand qubits plus its
// trap's structural predecessor), so dedup runs over a three-entry
// scratch and stores an already-sorted list inline in the op — no map, no
// per-op allocation.
func (cc *compilation) addOp(op isa.Op, structural bool, qubits ...int) int {
	id := len(cc.ops)
	op.ID = int32(id)
	if op.Kind != isa.OpMove && op.Kind != isa.OpLinkTransit {
		op.Segment = -1
	}
	if op.Kind != isa.OpJunctionCross {
		op.Junction = -1
	}
	var scratch [isa.MaxDeps]int32
	nd := 0
	addDep := func(d int) {
		if d < 0 {
			return
		}
		for i := 0; i < nd; i++ {
			if scratch[i] == int32(d) {
				return
			}
		}
		scratch[nd] = int32(d)
		nd++
	}
	var operands [isa.MaxQubits]int32
	for i, q := range qubits {
		operands[i] = int32(q)
		addDep(cc.lastOfQubit[q])
	}
	op.SetQubits(operands[:len(qubits)]...)
	if structural {
		addDep(cc.lastStructure[op.Trap])
	}
	// Insertion sort over at most three entries.
	for i := 1; i < nd; i++ {
		for j := i; j > 0 && scratch[j] < scratch[j-1]; j-- {
			scratch[j], scratch[j-1] = scratch[j-1], scratch[j]
		}
	}
	op.SetDeps(scratch[:nd]...)
	for _, q := range qubits {
		cc.lastOfQubit[q] = id
	}
	if structural {
		cc.lastStructure[op.Trap] = id
	}
	if op.Kind.Category() == isa.CatCompute && op.GateIndex >= 0 {
		for _, q := range qubits {
			cc.useCounts[q]++
		}
	}
	cc.ops = append(cc.ops, op)
	return id
}
