// Package compiler implements the QCCD backend compiler of §VI. It maps
// program qubits onto traps with a greedy first-use-order heuristic
// (leaving two buffer slots per trap for incoming shuttles), schedules
// gates earliest-ready-first (over a circuit's dependency DAG that is
// program order, so the baseline builds no DAG), routes shuttles along
// shortest device paths under fixed weights (inserting the extra
// merge/reorder/split sequences that linear topologies require at
// intermediate traps, Figure 4), inserts chain-reordering operations for
// the configured method (GS or IS), and emits a dependency-annotated
// isa.Program.
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
// The compiler emits against the simulator's chain model: addOp applies
// every op to an isa.Chains, so qubit positions, end insertions and end
// removals are O(1) ring-buffer steps, and an op the chains reject panics
// as the compiler bug it is. Op dependency sets are deduplicated through
// a three-entry scratch instead of a per-op map. An op holds its operands
// and dependencies inline (see isa.Op), so emitting one allocates nothing
// of its own, and the op list holds no pointers for the collector to
// scan. The op list is a compile's largest allocation, and CompileInto
// takes its storage from the caller: a sweep worker hands each compile
// the list of the program before, so the list grows only for a program
// larger than any the worker has compiled. What depends on the circuit
// alone — each qubit's uses, the first-use order and the lookahead
// order's dependency DAG — is an Analysis, which the toolflow builds
// once per circuit and every compile of it reads (Compile builds its
// own). The per-qubit and per-trap arrays, the chains, the router's
// search state and each shuttle's route are still allocated per compile.
// The router keeps each route's cost, the search's exact whole-number
// distance, so the move-cost and lookahead scores that ask for a
// distance on every gate read a stored number.
//
// Checks: Compile checks the circuit and device it is given and the
// program it emits. CompileInto, the toolflow's entry, checks none of
// them, since the toolflow checks each input once where it is made: the
// circuit by its builder, the device by device.Parse and the program by
// sim.Prepare. It still checks what only the pair can show, such as a
// circuit too large for the device, and every placement it makes.
//
// The decision heuristics — gate issue order, initial placement, and
// shuttle scoring and eviction — form the policy axis: Options.Policy
// names one row of the closed table in internal/models, and Compile's one
// switch picks that row's gate order and turns on its transit ledger.
// baseline.go holds the paper's heuristics; alternatives.go holds the
// lookahead gate order and the congestion ledger. The policy and the
// reorder method are the compiler's whole configuration.
package compiler

import (
	"fmt"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

// Options configures a compilation. Its zero value is the paper's
// configuration: GS reordering under the baseline policy. Everything else
// the compiler decides is fixed (two buffer slots per trap, first-use
// placement, shortest routes under fixed weights); a variant of a
// decision is a row of the policy table, not an option.
type Options struct {
	// Reorder selects the chain reordering method (GS or IS, §IV.C).
	Reorder models.ReorderMethod
	// Policy selects the compiler policy (gate order, placement,
	// routing; see models.Policies). The zero value is the baseline — the
	// paper's heuristics.
	Policy models.PolicyName
}

// DefaultOptions returns the paper's configuration, the zero Options.
func DefaultOptions() Options { return Options{} }

// maxEvictionDepth bounds recursive trap-overflow rebalancing.
const maxEvictionDepth = 16

// Compile lowers circuit c onto device d, producing an executable program.
// It checks all three: the circuit and device before compiling, and the
// program it emits.
func Compile(c *circuit.Circuit, d *device.Device, opts Options) (*isa.Program, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	prog, err := CompileInto(nil, Analyze(c), d, opts)
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: produced invalid program: %w", err)
	}
	return prog, nil
}

// CompileInto is Compile without its checks, compiling a's circuit and
// emitting into ops' storage. Each input is checked once where it is
// made: the circuit must be valid, as a Builder or qasm.Parse returns it,
// and d too, as device.Parse returns it; the program is left for
// sim.Prepare to check. When ops has room for the op list's seed, the
// program's Ops start at ops[:0], so a caller compiling many programs in
// turn can hand each the last one's Ops. The program then shares that
// storage, and the caller must not reuse it while the program is in use.
func CompileInto(ops []isa.Op, a *Analysis, d *device.Device, opts Options) (*isa.Program, error) {
	return compileWith(ops, a, d, opts, newLookaheadOrder)
}

// compileWith is CompileInto with the lookahead policy's gate order
// given, so that a test can compile under a reference order.
func compileWith(ops []isa.Op, a *Analysis, d *device.Device, opts Options,
	lookahead func(*compilation) schedule) (*isa.Program, error) {
	c := a.c
	if c.NumQubits > d.MaxIons() {
		return nil, fmt.Errorf("compiler: %d qubits exceed device capacity %d (%s)",
			c.NumQubits, d.MaxIons(), d.Name)
	}
	policy, err := models.ParsePolicy(string(opts.Policy))
	if err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	cc := &compilation{
		circ:   c,
		an:     a,
		dev:    d,
		opts:   opts,
		router: device.NewRouter(d),
	}
	// The op list is seeded at 1.5× the gate count. Over the paper grid's
	// 144 programs ops per gate run 1.02-5.50 (median 1.44, p90 2.89), so
	// 66 of them outgrow the seed; QFT@512 on two to four modules runs
	// 1.22-1.35. A larger factor would spare the shuttle-heavy small
	// programs a growth copy or two but reserve memory the largest never
	// touch, and a sweep worker's reused list grows to its largest
	// program once.
	if seed := 3*len(c.Gates)/2 + 16; cap(ops) >= seed {
		cc.ops = ops[:0]
	} else {
		cc.ops = make([]isa.Op, 0, seed)
	}
	layout, err := cc.mapQubits()
	if err != nil {
		return nil, err
	}
	// Every policy places, picks victims and picks eviction destinations
	// as the baseline does. Lookahead changes the gate order; congestion
	// adds its transit ledger's pressure to the move cost.
	var sched schedule = &programOrder{n: len(c.Gates)}
	switch policy {
	case models.PolicyLookahead:
		sched = lookahead(cc)
	case models.PolicyCongestion:
		cc.congestion = true
	}
	if err := cc.run(sched); err != nil {
		return nil, err
	}
	return &isa.Program{
		Name:          c.Name,
		NumQubits:     c.NumQubits,
		DeviceName:    d.Name,
		InitialLayout: layout,
		Ops:           cc.ops,
	}, nil
}

// schedule yields gate indices in an order that respects the circuit's
// dependencies, one at a time, so an order can consult the placement as
// it evolves.
type schedule interface {
	// Next returns the next gate to emit, or -1 when none is ready.
	Next() int
}

// compilation holds the mutable state of one Compile call.
type compilation struct {
	circ   *circuit.Circuit
	an     *Analysis
	dev    *device.Device
	opts   Options
	router *device.Router

	// congestion turns on the transit ledger: arrivals stamps every trap
	// a planned shuttle merges into, and moveCost charges its pressure.
	congestion bool
	arrivals   []transitStamp

	chains isa.Chains // live chains, stepped through every emitted op

	ops           []isa.Op
	lastOfQubit   []int // qubit -> last op ID touching it (-1 none)
	lastStructure []int // trap -> last structural op ID (-1 none)

	useCounts []int // qubit -> IR gates already emitted (cursor into its uses)

	// merged, which only the lookahead order keeps (nil otherwise), holds
	// per qubit the op count just after its last merge (0 for none), and
	// lastMerge the largest of them: a score taken at op count n is stale
	// once a qubit it reads has merged at a count above n.
	merged    []int32
	lastMerge int32
}

// mapQubits computes the initial qubit→trap layout, validates it (every
// program qubit exactly once, no chain over capacity) and installs it as
// the compilation's chains. It returns the layout.
func (cc *compilation) mapQubits() ([][]int, error) {
	c, d := cc.circ, cc.dev
	layout := cc.place()
	if len(layout) != d.NumTraps() {
		return nil, fmt.Errorf("compiler: placement returned %d chains for %d traps",
			len(layout), d.NumTraps())
	}
	seen := make([]bool, c.NumQubits)
	placed := 0
	for t, chain := range layout {
		if len(chain) > d.Capacity {
			return nil, fmt.Errorf("compiler: placement overfills trap %d: %d ions, capacity %d",
				t, len(chain), d.Capacity)
		}
		for _, q := range chain {
			if q < 0 || q >= c.NumQubits {
				return nil, fmt.Errorf("compiler: placement names unknown qubit %d", q)
			}
			if seen[q] {
				return nil, fmt.Errorf("compiler: placement assigns qubit %d twice", q)
			}
			seen[q] = true
			placed++
		}
	}
	if placed != c.NumQubits {
		return nil, fmt.Errorf("compiler: placement placed %d of %d qubits", placed, c.NumQubits)
	}
	cc.chains = isa.NewChains(layout, c.NumQubits, d.Capacity)
	cc.lastOfQubit = make([]int, c.NumQubits)
	for i := range cc.lastOfQubit {
		cc.lastOfQubit[i] = -1
	}
	cc.lastStructure = make([]int, d.NumTraps())
	for i := range cc.lastStructure {
		cc.lastStructure[i] = -1
	}
	cc.useCounts = make([]int, c.NumQubits)
	return layout, nil
}

// run emits ops gate by gate in the order sched yields (the baseline is
// earliest-ready-first, which is program order). The schedule is consumed
// incrementally so it can consult the placement as it evolves.
func (cc *compilation) run(sched schedule) error {
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
			q := g.Qubit(0)
			cc.addOp(isa.Op{
				Kind: isa.OpMeasure, Resource: int32(cc.chains.Trap(q)),
				Gate: g.Kind, GateIndex: int32(gi),
			}, false, q)
		case g.Kind.IsSingleQubit():
			q := g.Qubit(0)
			cc.addOp(isa.Op{
				Kind: isa.OpGate1, Resource: int32(cc.chains.Trap(q)),
				Gate: g.Kind, GateIndex: int32(gi),
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
// emits the entangling gate. Which operand moves is moveCost's call: the
// cheaper-scoring direction wins, ties moving the first operand.
func (cc *compilation) twoQubit(gi int, g circuit.Gate) error {
	a, b := g.Qubit(0), g.Qubit(1)
	ta, tb := cc.chains.Trap(a), cc.chains.Trap(b)
	if ta != tb {
		mover, src, dst := a, ta, tb
		if cc.moveCost(b, tb, ta) < cc.moveCost(a, ta, tb) {
			mover, src, dst = b, tb, ta
		}
		if err := cc.shuttle(mover, src, dst, gi, 0, []int{a, b}); err != nil {
			return fmt.Errorf("compiler: gate %d (%s): %w", gi, g, err)
		}
	}
	cc.addOp(isa.Op{
		Kind: isa.OpGate2, Resource: int32(cc.chains.Trap(a)),
		Gate: g.Kind, GateIndex: int32(gi),
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
	return cc.chains.Len(t) - 1 - pos
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
	if depth > maxEvictionDepth {
		return fmt.Errorf("eviction recursion exceeded depth %d", maxEvictionDepth)
	}
	route, err := cc.router.Route(src, dst)
	if err != nil {
		return err
	}
	routeTraps := []int{dst}
	for _, tr := range route.PassThroughs() {
		routeTraps = append(routeTraps, tr.Trap)
	}
	if cc.congestion {
		cc.stampArrivals(route)
	}
	protected := make([]int, 0, len(keep)+1)
	protected = append(protected, keep...)
	protected = append(protected, q)

	cc.reorderToEnd(q, src, route.SrcEnd, gi)
	cc.addOp(isa.Op{
		Kind: isa.OpSplit, Resource: int32(src), End: route.SrcEnd, GateIndex: int32(gi),
	}, true, q)

	for _, hop := range route.Hops {
		moveKind := isa.OpMove
		if cc.dev.Segments[hop.Segment].Kind == device.SegPhotonic {
			// A photonic interconnect is traversed as one timed link
			// transit (remote entanglement + teleportation), not a
			// per-unit shuttle.
			moveKind = isa.OpLinkTransit
		}
		cc.addOp(isa.Op{
			Kind: moveKind, Resource: int32(hop.Segment), GateIndex: int32(gi),
		}, false, q)
		switch hop.Node.Kind {
		case device.NodeJunction:
			cc.addOp(isa.Op{
				Kind: isa.OpJunctionCross, Resource: int32(hop.Node.Index), GateIndex: int32(gi),
			}, false, q)
		case device.NodeTrap:
			t := hop.Node.Index
			for cc.chains.Len(t) >= cc.dev.Capacity {
				if err := cc.evictOne(t, routeTraps, depth, protected); err != nil {
					return err
				}
			}
			cc.addOp(isa.Op{
				Kind: isa.OpMerge, Resource: int32(t), End: hop.EnterEnd, GateIndex: int32(gi),
			}, true, q)
			if cc.merged != nil {
				cc.lastMerge = int32(len(cc.ops))
				cc.merged[q] = cc.lastMerge
			}
			if t != dst {
				// Pass-through: reposition to the far end and split back
				// out (Figure 4).
				exit := hop.EnterEnd.Opposite()
				cc.reorderToEnd(q, t, exit, gi)
				cc.addOp(isa.Op{
					Kind: isa.OpSplit, Resource: int32(t), End: exit, GateIndex: int32(gi),
				}, true, q)
			}
		}
	}
	return nil
}

// evictOne moves one ion out of full trap t to make room: the resident
// with the farthest next use (Belady's rule) goes to the nearest trap with
// room, preferring traps outside softAvoid — the remaining shuttle route.
func (cc *compilation) evictOne(t int, softAvoid []int, depth int, keep []int) error {
	victim := cc.pickVictim(t, keep)
	if victim < 0 {
		return fmt.Errorf("trap %d full and nothing evictable", t)
	}
	dest := cc.pickEvictionDest(t, softAvoid)
	if dest < 0 {
		return fmt.Errorf("device full: no trap has room to rebalance from trap %d", t)
	}
	return cc.shuttle(victim, t, dest, -1, depth+1, keep)
}

// nextUse returns the next gate index that will use q, or a large sentinel
// when q is never used again. Gates on one qubit are emitted in program
// order, so the per-qubit emitted-use count is a cursor into its uses.
func (cc *compilation) nextUse(q int) int {
	uses := cc.an.usesOf(q)
	if cc.useCounts[q] >= len(uses) {
		return 1 << 30
	}
	return int(uses[cc.useCounts[q]])
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// reorderToEnd brings qubit q to the given chain end of trap t using the
// configured reordering method, emitting the necessary ops.
func (cc *compilation) reorderToEnd(q, t int, end device.End, gi int) {
	pos := cc.position(q, t)
	target := 0
	if end == device.Right {
		target = cc.chains.Len(t) - 1
	}
	if pos == target {
		return
	}
	switch cc.opts.Reorder {
	case models.GS:
		cc.addOp(isa.Op{
			Kind: isa.OpSwapGS, Resource: int32(t), GateIndex: int32(gi),
		}, true, q, cc.chains.At(t, target))
	case models.IS:
		step := 1
		if target < pos {
			step = -1
		}
		for p := pos; p != target; p += step {
			cc.addOp(isa.Op{
				Kind: isa.OpIonSwap, Resource: int32(t), GateIndex: int32(gi),
			}, true, q, cc.chains.At(t, p+step))
		}
	}
}

// position returns q's index within trap t's chain.
func (cc *compilation) position(q, t int) int {
	if cc.chains.Trap(q) != t {
		panic(fmt.Sprintf("compiler: qubit %d not in trap %d", q, t))
	}
	return cc.chains.Pos(q)
}

// addOp finalizes an op on the given operand qubits: derives its
// dependencies, applies it to the chains, updates the per-qubit and
// per-trap bookkeeping, and appends it. Its index is its ID.
//
// An op has at most three dependency sources (two operand qubits plus its
// trap's structural predecessor), so dedup runs over a three-entry
// scratch and stores an already-sorted list inline in the op — no map, no
// per-op allocation.
func (cc *compilation) addOp(op isa.Op, structural bool, qubits ...int) int {
	id := len(cc.ops)
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
		addDep(cc.lastStructure[op.Resource]) // a structural op's trap
	}
	// Insertion sort over at most three entries.
	for i := 1; i < nd; i++ {
		for j := i; j > 0 && scratch[j] < scratch[j-1]; j-- {
			scratch[j], scratch[j-1] = scratch[j-1], scratch[j]
		}
	}
	op.SetDeps(scratch[:nd]...)
	if err := cc.chains.Apply(&op); err != nil {
		// A rejected op is a compiler bug. Formatting op by value keeps it
		// from escaping to the heap on every call.
		panic("compiler: emitted " + strconv.Itoa(id) + ": " + op.String() + ": " + err.Error())
	}
	for _, q := range qubits {
		cc.lastOfQubit[q] = id
	}
	if structural {
		cc.lastStructure[op.Resource] = id
	}
	if op.Kind.Category() == isa.CatCompute && op.GateIndex >= 0 {
		for _, q := range qubits {
			cc.useCounts[q]++
		}
	}
	cc.ops = append(cc.ops, op)
	return id
}
