package compiler

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/models"
)

// This file defines the compiler's pluggable policy layer: the three
// decision seams of the backend — which ready gate fires next, where
// qubits start, and how shuttles are scored and evictions chosen — as
// interfaces, with registered named bundles selectable per design point.
// The paper's hardwired heuristics are the "baseline" bundle, pinned
// bit-identically by the golden determinism gate; alternatives plug in
// without touching the emission machinery, which is what lets sweeps treat
// policy × topology × capacity as one search space (Schoenberger et al.,
// TITAN — see PAPERS.md).

// State is the read-only view of the live compilation that policies
// consult. It is implemented by the compiler's internal state; all methods
// are O(1) except Distance/RouteSrcEnd, which hit the router's memoized
// shortest-path tables.
type State interface {
	// Circuit returns the program being compiled.
	Circuit() *circuit.Circuit
	// Device returns the target hardware description.
	Device() *device.Device
	// Options returns the compile options (reorder method, buffer slots).
	Options() Options
	// TrapOf returns the trap currently holding qubit q, or -1 in transit.
	TrapOf(q int) int
	// ChainLen returns the number of ions resident in trap t.
	ChainLen(t int) int
	// FreeSlots returns the spare capacity of trap t.
	FreeSlots(t int) int
	// ChainQubit returns the qubit at chain position i of trap t
	// (0 = left end).
	ChainQubit(t, i int) int
	// ReorderSteps returns how many positions separate resident qubit q
	// from the given end of trap t's chain.
	ReorderSteps(q, t int, end device.End) int
	// NextUse returns the next gate index that will use q, or a large
	// sentinel when q is never used again.
	NextUse(q int) int
	// FutureUses returns the gate indices still to be emitted on q, in
	// program order (a live subslice: cheap, do not retain).
	FutureUses(q int) []int
	// Distance returns the routed shuttle distance between two traps.
	Distance(src, dst int) (float64, error)
	// RouteSrcEnd returns which end of src's chain the route to dst
	// departs from.
	RouteSrcEnd(src, dst int) (device.End, error)
	// OpsEmitted returns how many ops have been emitted so far — the
	// compile-time clock congestion decay runs on.
	OpsEmitted() int
}

// GateOrderPolicy decides the gate issue order. NewSchedule is called once
// per compilation; the returned schedule owns its dependency bookkeeping,
// so a policy that needs the dependency DAG builds it (circuit.BuildDAG)
// and one that does not, like the baseline's program order, pays nothing.
type GateOrderPolicy interface {
	// NewSchedule starts a traversal of the circuit's gates in an order
	// that respects their dependencies.
	NewSchedule(c *circuit.Circuit, st State) GateSchedule
}

// GateSchedule yields gate indices in a topological execution order, one
// at a time, so a policy can consult the evolving placement between picks.
type GateSchedule interface {
	// Next returns the next gate to emit, or -1 when none is ready.
	Next() int
}

// PlacementPolicy chooses the initial qubit→trap mapping.
type PlacementPolicy interface {
	// Place returns the initial per-trap chains (trap index → qubit list,
	// position 0 = left end). Every program qubit must appear exactly
	// once, and no chain may exceed the device capacity; the compiler
	// validates the returned layout before using it.
	Place(c *circuit.Circuit, d *device.Device, opts Options) ([][]int, error)
}

// RoutePolicy scores shuttle choices and picks eviction targets.
type RoutePolicy interface {
	// MoveCost scores shuttling qubit mover from trap src into trap dst;
	// the compiler moves whichever two-qubit-gate operand costs less.
	MoveCost(st State, mover, src, dst int) float64
	// PickVictim selects the resident of full trap t to evict, excluding
	// the keep set; -1 means nothing is evictable.
	PickVictim(st State, t int, keep []int) int
	// PickEvictionDest selects the trap the victim is sent to, preferring
	// traps outside softAvoid; -1 means the device has no room anywhere.
	PickEvictionDest(st State, t int, softAvoid []int) int
}

// ShuttleObserver is optionally implemented by a RoutePolicy that wants to
// see the shuttles the compiler commits to (congestion tracking). Observe
// fires once per planned shuttle, after its route is resolved and before
// its ops are emitted; arrivals lists every trap the mover will merge into
// (pass-throughs and the destination, in route order).
type ShuttleObserver interface {
	ObserveShuttle(st State, mover, src, dst int, arrivals []int)
}

// Bundle is one registered, named policy combination. Factories (not
// instances) are registered because policies may carry per-compilation
// state (the congestion router's transit ledger): every Compile call
// instantiates fresh policy objects, keeping compilations concurrent-safe
// and deterministic.
type Bundle struct {
	// Name is the lowercase display name ("baseline", "lookahead", ...).
	Name string
	// Description is the one-line summary discovery surfaces show.
	Description string
	// NewOrder, NewPlace and NewRoute construct the three seam
	// implementations for one compilation.
	NewOrder func() GateOrderPolicy
	NewPlace func() PlacementPolicy
	NewRoute func() RoutePolicy
}

// bundles is the policy registry, filled by init functions in this
// package and read-only afterwards.
var bundles = make(map[string]Bundle)

// Register adds a policy bundle and advertises its name through
// models.RegisterPolicy (unless models already knows it, as it does the
// baseline). Registration is an init-time act; a duplicate or incomplete
// bundle panics.
func Register(b Bundle) {
	if b.Name == "" || b.NewOrder == nil || b.NewPlace == nil || b.NewRoute == nil {
		panic(fmt.Sprintf("compiler: Register(%q): incomplete bundle", b.Name))
	}
	if _, dup := bundles[b.Name]; dup {
		panic(fmt.Sprintf("compiler: Register(%q): already registered", b.Name))
	}
	bundles[b.Name] = b
	if !models.PolicyRegistered(models.PolicyName(b.Name)) {
		models.RegisterPolicy(b.Name, b.Description)
	}
}

// Lookup resolves a policy name ("" or "baseline" mean the baseline
// bundle) to its registered bundle.
func Lookup(name models.PolicyName) (Bundle, error) {
	canonical, err := models.ParsePolicy(string(name))
	if err != nil {
		return Bundle{}, fmt.Errorf("compiler: %w", err)
	}
	key := canonical.String() // zero value displays as "baseline"
	b, ok := bundles[key]
	if !ok {
		// Registered with models but not with the compiler: a policy name
		// another package claimed without providing an implementation.
		return Bundle{}, fmt.Errorf("compiler: policy %q has no registered implementation", key)
	}
	return b, nil
}

// Policies lists the registered bundles, baseline first and the rest in
// name order.
func Policies() []Bundle {
	out := make([]Bundle, 0, len(bundles))
	for _, b := range bundles {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i].Name == models.PolicyBaseline) != (out[j].Name == models.PolicyBaseline) {
			return out[i].Name == models.PolicyBaseline
		}
		return out[i].Name < out[j].Name
	})
	return out
}
