package isa

import (
	"errors"
	"fmt"

	"repro/internal/device"
)

// Chains is the ion-chain state that ops act on: per trap, its chain of
// qubits in order (position 0 = left end), and per qubit, the trap that
// holds it or -1 while it is in transit. The compiler applies every op it
// emits and the simulator every op it completes, so both read chain
// membership, order and occupancy from this one model.
//
// Each trap's chain is a fixed-capacity ring buffer, and a qubit →
// (trap, slot) index is kept up to date, so positions, end insertions and
// end removals are O(1): no op scans or copies a chain. The state lives in
// slices, so a copy of a Chains value shares it; callers embed the value
// to spare the hot paths a pointer hop.
type Chains struct {
	rings []ring
	trap  []int // qubit → trap, -1 while in transit
	slot  []int // qubit → ring slot within its trap (valid while resident)
}

// ring is one trap's chain; len(buf) is the trap capacity, or the qubit
// count if smaller: a merge still overflows only a trap at capacity.
type ring struct {
	buf     []int
	head, n int // slot of position 0, chain length
}

// slotAt returns the ring slot of chain position i.
func (r *ring) slotAt(i int) int {
	s := r.head + i
	if s >= len(r.buf) {
		s -= len(r.buf)
	}
	return s
}

// NewChains returns the chains of layout — per trap, the qubit IDs in
// chain order, as Program.InitialLayout holds them — for numQubits qubits
// and traps of the given capacity. Qubits the layout does not place start
// in transit. The layout must name each qubit below numQubits at most once
// and fill no trap past capacity.
func NewChains(layout [][]int, numQubits, capacity int) Chains {
	c := Chains{
		rings: make([]ring, len(layout)),
		trap:  make([]int, numQubits),
		slot:  make([]int, numQubits),
	}
	for q := range c.trap {
		c.trap[q] = -1
	}
	capacity = min(capacity, numQubits) // no chain holds more ions than there are qubits
	store := make([]int, len(layout)*capacity)
	for t, chain := range layout {
		r := &c.rings[t]
		r.buf = store[t*capacity : (t+1)*capacity : (t+1)*capacity]
		r.n = copy(r.buf, chain)
		for i, q := range chain {
			c.trap[q] = t
			c.slot[q] = i
		}
	}
	return c
}

// Trap returns the trap holding qubit q, or -1 while q is in transit.
func (c *Chains) Trap(q int) int { return c.trap[q] }

// Len returns the length of trap t's chain.
func (c *Chains) Len(t int) int { return c.rings[t].n }

// At returns the qubit at position i of trap t's chain.
func (c *Chains) At(t, i int) int {
	r := &c.rings[t]
	return r.buf[r.slotAt(i)]
}

// Pos returns qubit q's position in its trap's chain, or -1 while q is in
// transit.
func (c *Chains) Pos(q int) int {
	t := c.trap[q]
	if t < 0 {
		return -1
	}
	r := &c.rings[t]
	p := c.slot[q] - r.head
	if p < 0 {
		p += len(r.buf)
	}
	return p
}

// Apply checks op against the chains and applies its structural effect.
// Gate and measure operands must be resident in the op's trap; a move,
// junction crossing or link transit needs its ion in transit. A split
// detaches its ion from the named chain end, a merge attaches its ion
// there, and a GS swap or an ion swap (of adjacent ions) exchanges its
// operands' positions. A failed Apply leaves the chains unchanged.
//
// The op must satisfy Program.Validate, and its trap must exist whenever
// its kind names one.
func (c *Chains) Apply(op *Op) error {
	t := int(op.Resource) // the trap, for the kinds that act in one
	// The operands; b is meaningful only for the two-qubit kinds.
	a, b := int(op.qubits[0]), int(op.qubits[1])
	switch op.Kind {
	case OpGate1, OpMeasure:
		if c.trap[a] != t {
			return errors.New("qubit not in trap")
		}
	case OpGate2:
		if c.trap[a] != t || c.trap[b] != t {
			return errors.New("gate operands not co-located")
		}
	case OpSwapGS:
		if c.trap[a] != t || c.trap[b] != t {
			return errors.New("swap operands not co-located")
		}
		c.swap(t, a, b)
	case OpIonSwap:
		if c.trap[a] != t || c.trap[b] != t {
			return errors.New("ion-swap operands not co-located")
		}
		if pa, pb := c.Pos(a), c.Pos(b); pa-pb != 1 && pb-pa != 1 {
			return fmt.Errorf("ion-swap operands not adjacent (%d,%d)", pa, pb)
		}
		c.swap(t, a, b)
	case OpSplit:
		r := &c.rings[t]
		if r.n == 0 {
			return errors.New("split from empty trap")
		}
		end := r.n - 1
		if op.End == device.Left {
			end = 0
		}
		if c.trap[a] != t || r.buf[r.slotAt(end)] != a {
			return fmt.Errorf("split qubit q%d not at %s end of trap %d", a, op.End, t)
		}
		if op.End == device.Left {
			r.head = r.slotAt(1)
		}
		r.n--
		c.trap[a] = -1
	case OpMove:
		if c.trap[a] != -1 {
			return fmt.Errorf("move of qubit q%d that is not in transit", a)
		}
	case OpLinkTransit:
		if c.trap[a] != -1 {
			return fmt.Errorf("link transit of qubit q%d that is not in transit", a)
		}
	case OpJunctionCross:
		if c.trap[a] != -1 {
			return fmt.Errorf("junction crossing of qubit q%d not in transit", a)
		}
	case OpMerge:
		if c.trap[a] != -1 {
			return fmt.Errorf("merge of qubit q%d that is not in transit", a)
		}
		r := &c.rings[t]
		if r.n >= len(r.buf) {
			return fmt.Errorf("merge overflows trap %d (cap %d)", t, len(r.buf))
		}
		s := r.slotAt(r.n)
		if op.End == device.Left {
			s = r.slotAt(len(r.buf) - 1)
			r.head = s
		}
		r.buf[s] = a
		r.n++
		c.trap[a] = t
		c.slot[a] = s
	default:
		return fmt.Errorf("unknown op kind %s", op.Kind)
	}
	return nil
}

// swap exchanges the ring slots of resident qubits a and b of trap t.
func (c *Chains) swap(t, a, b int) {
	buf := c.rings[t].buf
	sa, sb := c.slot[a], c.slot[b]
	buf[sa], buf[sb] = b, a
	c.slot[a], c.slot[b] = sb, sa
}
