// Package isa defines the primitive QCCD instruction set produced by the
// backend compiler (§V.A): in-trap gates, measurements, the shuttling
// primitives split / move / junction-cross / merge, and the two chain
// reordering primitives (gate-based SWAP and physical ion swap). A Program
// is an executable: an initial qubit layout plus a dependency-annotated
// operation list that the simulator schedules onto device resources.
// Chains is the ion-chain state those ops act on; the compiler and the
// simulator both step it through every op.
//
// An Op is a fixed-size 32-byte record with no pointers: its operands
// (at most two qubits) and its dependencies (at most three earlier ops)
// are held inline, and gate indices, resources and qubits are 32-bit, as
// the circuit.Gate records a program is compiled from are. A program of
// hundreds of thousands of ops is then one flat allocation that the
// garbage collector never scans. The record stores nothing a program
// already knows: every op holds exactly one device resource (§V.B), so
// one field names its trap, segment or junction; an op's index in
// Program.Ops is its ID; and a gate's angle stays on the circuit gate
// that GateIndex names. The 32-bit fields bound a program below 2^31 ops
// and qubits, far beyond any the toolflow builds: 2^31 ops would take 64
// GiB, and QFT@1024's 3.6 M take 115 MB.
//
// Program.Validate is the program's structural check. compiler.Compile
// runs it on what it emits, and sim.Prepare on what it is given, which on
// the toolflow's path is the one check a program gets.
package isa

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/device"
)

// OpKind enumerates the primitive QCCD operations.
type OpKind uint8

const (
	// OpGate1 is a single-qubit gate executed inside a trap.
	OpGate1 OpKind = iota
	// OpGate2 is a two-qubit MS-mediated gate inside a trap.
	OpGate2
	// OpMeasure is a qubit readout inside a trap.
	OpMeasure
	// OpSplit detaches the ion holding a qubit from the chain end of a
	// trap onto the adjoining segment.
	OpSplit
	// OpMove shuttles a detached ion across one segment.
	OpMove
	// OpJunctionCross shuttles a detached ion through a junction,
	// including any turn.
	OpJunctionCross
	// OpMerge attaches a detached ion to a chain end of a trap.
	OpMerge
	// OpSwapGS exchanges the quantum states of two ions in one trap using
	// a SWAP gate (3 MS gates plus single-qubit corrections).
	OpSwapGS
	// OpIonSwap physically exchanges two adjacent ions in one trap
	// (split + 180° rotation + merge).
	OpIonSwap
	// OpLinkTransit carries a detached ion's state across a photonic
	// interconnect segment joining two QCCD modules: remote entanglement
	// is established over the optical link and the state is teleported
	// onto a fresh ion on the far side (TITAN-style, PAPERS.md).
	OpLinkTransit
)

var opNames = [...]string{
	OpGate1:         "gate1",
	OpGate2:         "gate2",
	OpMeasure:       "measure",
	OpSplit:         "split",
	OpMove:          "move",
	OpJunctionCross: "junction",
	OpMerge:         "merge",
	OpSwapGS:        "swapgs",
	OpIonSwap:       "ionswap",
	OpLinkTransit:   "link",
}

// String returns the mnemonic for k.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Category splits operations into the computation/communication classes
// used by Figure 6b. Chain reordering counts as communication: it exists
// only to enable shuttling (§IV.C).
type Category uint8

const (
	// CatCompute covers gates and measurements from the program itself.
	CatCompute Category = iota
	// CatComm covers shuttling and chain-reordering overhead.
	CatComm
)

// String returns "compute" or "comm".
func (c Category) String() string {
	if c == CatCompute {
		return "compute"
	}
	return "comm"
}

// Category classifies the op kind.
func (k OpKind) Category() Category {
	switch k {
	case OpGate1, OpGate2, OpMeasure:
		return CatCompute
	default:
		return CatComm
	}
}

// MaxQubits and MaxDeps bound an op's inline operand and dependency
// lists. The compiler never needs more: an op names at most two qubits,
// and it depends on the previous op of each operand plus, for a
// structural op, its trap's previous structural op.
const (
	MaxQubits = 2
	MaxDeps   = 3
)

// Op is one primitive instruction. Its index in Program.Ops is its ID,
// which dependencies name and the simulator schedules by.
type Op struct {
	// GateIndex is the IR gate index this op realizes, or -1 for
	// compiler-inserted communication ops.
	GateIndex int32
	// Resource is the one device resource the op holds: the segment of a
	// move or link transit, the junction of a junction-cross, and the trap
	// of every other kind. Trap, Segment and Junction read it by kind.
	Resource int32
	// qubits and deps back Qubits and Deps; counts packs their lengths
	// (see SetQubits and SetDeps).
	qubits [MaxQubits]int32
	deps   [MaxDeps]int32
	// Kind selects the primitive.
	Kind OpKind
	// End is the chain end for split/merge.
	End device.End
	// Gate carries the original IR gate kind for gate1/gate2/measure.
	Gate   circuit.Kind
	counts uint8 // qubit count in the low two bits, dependency count above
}

// Qubits returns the program qubits involved (two for gate2/swap kinds).
// The slice aliases the op: it is valid while the op is, and writes
// through it change the op.
func (o *Op) Qubits() []int32 { return o.qubits[:o.counts&3] }

// Deps returns the indices of the ops that must complete before this op
// starts, all earlier than the op's own. The slice aliases the op, like
// Qubits.
func (o *Op) Deps() []int32 { return o.deps[:o.counts>>2] }

// SetQubits replaces the op's operands. It panics on more than MaxQubits.
func (o *Op) SetQubits(qs ...int32) {
	if len(qs) > MaxQubits {
		panic(fmt.Sprintf("isa: %d qubits, at most %d fit in an op", len(qs), MaxQubits))
	}
	o.counts = o.counts&^3 | uint8(copy(o.qubits[:], qs))
}

// SetDeps replaces the op's dependencies. It panics on more than MaxDeps.
func (o *Op) SetDeps(ds ...int32) {
	if len(ds) > MaxDeps {
		panic(fmt.Sprintf("isa: %d deps, at most %d fit in an op", len(ds), MaxDeps))
	}
	o.counts = o.counts&3 | uint8(copy(o.deps[:], ds))<<2
}

// Trap returns the trap the op acts in, or -1 for a move, link transit or
// junction-cross, which act outside any trap.
func (o *Op) Trap() int32 {
	switch o.Kind {
	case OpMove, OpLinkTransit, OpJunctionCross:
		return -1
	}
	return o.Resource
}

// Segment returns the segment a move or link transit traverses, or -1
// for any other kind.
func (o *Op) Segment() int32 {
	if o.Kind == OpMove || o.Kind == OpLinkTransit {
		return o.Resource
	}
	return -1
}

// Junction returns the junction a junction-cross traverses, or -1 for
// any other kind.
func (o *Op) Junction() int32 {
	if o.Kind == OpJunctionCross {
		return o.Resource
	}
	return -1
}

// String renders one op, e.g. "gate2 cx q5,q9 @T2 <- [10 11]". The op
// does not know its index: a listing puts it in front, as Program.String
// does ("12: gate2 cx …").
func (o Op) String() string {
	var b strings.Builder
	b.WriteString(o.Kind.String())
	if o.Kind == OpGate1 || o.Kind == OpGate2 || o.Kind == OpMeasure {
		fmt.Fprintf(&b, " %s", o.Gate)
	}
	for i, q := range o.Qubits() {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q%d", q)
	}
	switch o.Kind {
	case OpMove, OpLinkTransit:
		fmt.Fprintf(&b, " @s%d", o.Resource)
	case OpJunctionCross:
		fmt.Fprintf(&b, " @J%d", o.Resource)
	case OpSplit, OpMerge:
		fmt.Fprintf(&b, " @T%d.%s", o.Resource, o.End)
	default:
		fmt.Fprintf(&b, " @T%d", o.Resource)
	}
	if deps := o.Deps(); len(deps) > 0 {
		fmt.Fprintf(&b, " <- %v", deps)
	}
	return b.String()
}

// Program is a compiled executable for one circuit on one device.
type Program struct {
	// Name is the source circuit name.
	Name string
	// NumQubits is the program qubit count.
	NumQubits int
	// DeviceName records the target device spec (e.g. "L6").
	DeviceName string
	// InitialLayout lists, per trap, the qubit IDs in chain order
	// (index 0 = left end) at program start.
	InitialLayout [][]int
	// Ops is the instruction list in compile order.
	Ops []Op
}

// CountKind returns the number of ops of kind k.
func (p *Program) CountKind(k OpKind) int {
	n := 0
	for i := range p.Ops {
		if p.Ops[i].Kind == k {
			n++
		}
	}
	return n
}

// Validate checks structural well-formedness: dependency ordering, qubit
// ranges, layout consistency (each qubit placed exactly once) and
// kind-specific operand/resource fields.
func (p *Program) Validate() error {
	placed := make([]bool, p.NumQubits)
	nPlaced := 0
	for trap, chain := range p.InitialLayout {
		for _, q := range chain {
			if q < 0 || q >= p.NumQubits {
				return fmt.Errorf("isa: layout trap %d: qubit %d out of range", trap, q)
			}
			if placed[q] {
				return fmt.Errorf("isa: qubit %d placed twice in layout", q)
			}
			placed[q] = true
			nPlaced++
		}
	}
	if nPlaced != p.NumQubits {
		return fmt.Errorf("isa: layout places %d of %d qubits", nPlaced, p.NumQubits)
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		for _, d := range op.Deps() {
			if d < 0 || int(d) >= i {
				return fmt.Errorf("isa: op %d depends on non-earlier op %d", i, d)
			}
		}
		for _, q := range op.Qubits() {
			if q < 0 || int(q) >= p.NumQubits {
				return fmt.Errorf("isa: op %d qubit %d out of range", i, q)
			}
		}
		wantQubits := 1
		switch op.Kind {
		case OpGate2, OpSwapGS, OpIonSwap:
			wantQubits = 2
		}
		if len(op.Qubits()) != wantQubits {
			return fmt.Errorf("isa: op %d (%s) has %d qubits, want %d", i, op.Kind, len(op.Qubits()), wantQubits)
		}
		if op.Resource < 0 {
			switch op.Kind {
			case OpMove, OpLinkTransit:
				return fmt.Errorf("isa: op %d %s without segment", i, op.Kind)
			case OpJunctionCross:
				return fmt.Errorf("isa: op %d junction-cross without junction", i)
			default:
				return fmt.Errorf("isa: op %d (%s) without trap", i, op.Kind)
			}
		}
	}
	return nil
}

// String renders the program header and every op, one per line. Intended
// for debugging and golden tests on small programs.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s on %s (%d qubits, %d ops)\n", p.Name, p.DeviceName, p.NumQubits, len(p.Ops))
	for t, chain := range p.InitialLayout {
		fmt.Fprintf(&b, "  T%d: %v\n", t, chain)
	}
	for i := range p.Ops {
		fmt.Fprintf(&b, "  %d: %s\n", i, &p.Ops[i])
	}
	return b.String()
}
