package circuit

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		GateH:       "h",
		GateCNOT:    "cx",
		GateMS:      "ms",
		GateMeasure: "measure",
		Invalid:     "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind = %q", got)
	}
}

func TestKindByName(t *testing.T) {
	for k := GateX; k <= GateBarrier; k++ {
		if got := KindByName(k.String()); got != k {
			t.Errorf("KindByName(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if got := KindByName("nonsense"); got != Invalid {
		t.Errorf("KindByName(nonsense) = %v, want Invalid", got)
	}
}

func TestArity(t *testing.T) {
	if GateH.Arity() != 1 || GateCNOT.Arity() != 2 || GateBarrier.Arity() != -1 {
		t.Fatal("unexpected arities")
	}
	if !GateMS.IsTwoQubit() || GateH.IsTwoQubit() {
		t.Fatal("IsTwoQubit misclassifies")
	}
	if !GateH.IsSingleQubit() || GateMeasure.IsSingleQubit() {
		t.Fatal("IsSingleQubit misclassifies")
	}
}

func TestGateValidate(t *testing.T) {
	all := make([]int, 130)
	for i := range all {
		all[i] = i
	}
	tests := []struct {
		g    Gate
		n    int
		want string // the error, or "" for a valid gate
	}{
		{NewGate1(GateH, 0), 1, ""},
		{NewGate2(GateCNOT, 0, 1), 2, ""},
		{NewGate2(GateCNOT, 0, 0), 2, "circuit: gate cx repeats operand 0"},
		{NewGate2(GateCNOT, 1, 1), 1, "circuit: gate cx operand 1 out of range [0,1)"},
		{NewGate1(GateH, 5), 2, "circuit: gate h operand 5 out of range [0,2)"},
		{NewGate1(GateH, -1), 2, "circuit: gate h operand -1 out of range [0,2)"},
		{NewGate1(GateCNOT, 0), 2, "circuit: gate cx wants 2 qubits, has 1"},
		{Gate{}, 2, "circuit: invalid gate kind"},
		{NewGate1(GateH, 1<<40), 2, "circuit: gate h operand 2147483647 out of range [0,2)"},
	}
	for i, tt := range tests {
		err := tt.g.Validate(tt.n)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tt.want {
			t.Errorf("case %d: Validate() err=%q, want %q", i, got, tt.want)
		}
	}
	// A barrier's operands live in its circuit, which checks them.
	barriers := []struct {
		qs   []int
		n    int
		want string
	}{
		{[]int{3, 70, 3}, 100, "gate 0: circuit: gate barrier repeats operand 3"},
		{[]int{0, 1, 2, 99, 98, 97}, 100, ""},
		{all, 130, ""},
		{[]int{0, 130}, 130, "gate 0: circuit: gate barrier operand 130 out of range [0,130)"},
	}
	for i, tt := range barriers {
		c := New("barrier", tt.n)
		c.AppendBarrier(tt.qs...)
		got := ""
		if err := c.Validate(); err != nil {
			got = err.Error()
		}
		if got != tt.want {
			t.Errorf("barrier case %d: Validate() err=%q, want %q", i, got, tt.want)
		}
		berr := NewBuilder("barrier", tt.n).Barrier(tt.qs...).Err()
		if got := fmt.Sprint(berr); berr != nil && got != tt.want || berr == nil && tt.want != "" {
			t.Errorf("barrier case %d: Builder.Barrier err=%v, want %q", i, berr, tt.want)
		}
	}
}

// TestBarrierChecksStartClear validates barriers over shared qubits
// through one Circuit.Validate call and one Builder, which keep one
// repeat-check bitset across barriers: each barrier's check starts clear.
func TestBarrierChecksStartClear(t *testing.T) {
	c := New("barriers", 70)
	b := NewBuilder("barriers", 70)
	for _, qs := range [][]int{{0, 69}, {69, 0}, {0, 1, 69}, {1}} {
		c.AppendBarrier(qs...)
		b.Barrier(qs...)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Circuit.Validate: %v", err)
	}
	if err := b.Err(); err != nil {
		t.Errorf("Builder.Barrier: %v", err)
	}
	c.AppendBarrier(5, 69, 5)
	b.Barrier(5, 69, 5)
	const want = "gate 4: circuit: gate barrier repeats operand 5"
	if err := c.Validate(); err == nil || err.Error() != want {
		t.Errorf("Circuit.Validate: error %v, want %s", err, want)
	}
	if err := b.Err(); err == nil || err.Error() != want {
		t.Errorf("Builder.Barrier: error %v, want %s", err, want)
	}
}

// TestExtendBarrier adds runs of operands to the last gate, a barrier
// from AppendBarrier or an operandless one from Append, and refuses a
// last gate that is not a barrier.
func TestExtendBarrier(t *testing.T) {
	c := New("extend", 8)
	c.AppendBarrier(3)
	c.ExtendBarrier(5, 3)
	c.Append(Gate{Kind: GateBarrier})
	c.ExtendBarrier(0, 2)
	c.ExtendBarrier(4, 0)
	for i, want := range [][]int32{{3, 5, 6, 7}, {0, 1}} {
		if got := c.Qubits(i); !slices.Equal(got, want) {
			t.Errorf("Qubits(%d) = %v, want %v", i, got, want)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Append(NewGate1(GateH, 0))
	defer func() {
		if recover() == nil {
			t.Error("ExtendBarrier after an H did not panic")
		}
	}()
	c.ExtendBarrier(0, 1)
}

func TestCircuitCountsAndValidate(t *testing.T) {
	c := New("test", 3)
	c.Append(NewGate1(GateH, 0), NewGate2(GateCNOT, 0, 1), NewGate2(GateCZ, 1, 2))
	c.MeasureAll()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := c.TwoQubitGates(); got != 2 {
		t.Errorf("TwoQubitGates = %d, want 2", got)
	}
	if got := c.SingleQubitGates(); got != 1 {
		t.Errorf("SingleQubitGates = %d, want 1", got)
	}
	if got := c.Measurements(); got != 3 {
		t.Errorf("Measurements = %d, want 3", got)
	}
}

func TestCircuitValidateErrors(t *testing.T) {
	c := New("bad", 0)
	if err := c.Validate(); err == nil {
		t.Error("zero-qubit circuit should fail validation")
	}
	c = New("bad2", 2)
	c.Append(NewGate1(GateH, 7))
	if err := c.Validate(); err == nil {
		t.Error("out-of-range operand should fail validation")
	}
}

func TestClone(t *testing.T) {
	c := New("orig", 3)
	c.Append(NewGate2(GateCNOT, 0, 1))
	c.AppendBarrier(2, 0, 1)
	d := c.Clone()
	d.Qubits(0)[0] = 1
	d.Qubits(0)[1] = 0
	if c.Qubits(0)[0] != 0 {
		t.Error("Clone shares gate operands with original")
	}
	if got := d.Qubits(1); !slices.Equal(got, []int32{2, 0, 1}) {
		t.Fatalf("clone's barrier operands = %v, want [2 0 1]", got)
	}
	d.Qubits(1)[0] = 1
	if c.Qubits(1)[0] != 2 {
		t.Error("Clone shares barrier operands with original")
	}
}

// TestBarrierTable covers the barrier side table: Qubits returns each
// gate's operands, a barrier's span stays put as gates follow it, Append
// refuses a barrier that names operands of another circuit's table, and a
// gate record stays 24 bytes.
func TestBarrierTable(t *testing.T) {
	c := New("b", 4)
	c.AppendBarrier(3, 1)
	c.Append(NewGate2(GateCZ, 0, 2), Gate{Kind: GateBarrier})
	c.AppendBarrier(0, 1, 2, 3)
	want := [][]int32{{3, 1}, {0, 2}, {}, {0, 1, 2, 3}}
	for i, w := range want {
		if got := c.Qubits(i); !slices.Equal(got, w) {
			t.Errorf("Qubits(%d) = %v, want %v", i, got, w)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Gates[0].String(); got != "barrier" {
		t.Errorf("barrier String = %q, want %q", got, "barrier")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Append of another circuit's barrier did not panic")
			}
		}()
		New("other", 4).Append(c.Gates[3])
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Qubit on a barrier did not panic")
			}
		}()
		_ = c.Gates[0].Qubit(0)
	}()
	if size := unsafe.Sizeof(Gate{}); size != 24 {
		t.Errorf("Gate is %d bytes, want 24", size)
	}
}

func TestFirstUseOrder(t *testing.T) {
	c := New("fuo", 4)
	c.Append(NewGate2(GateCNOT, 2, 1), NewGate1(GateH, 0))
	got := c.FirstUseOrder()
	want := []int{2, 1, 0, 3} // gate order touches 2,1 then 0; 3 unused
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FirstUseOrder = %v, want %v", got, want)
		}
	}
}

func TestDepthEmpty(t *testing.T) {
	if got := ComputeStats(New("empty", 1)).Depth; got != 0 {
		t.Errorf("Depth(empty) = %d, want 0", got)
	}
}

// randomCircuit builds a valid random circuit for property tests:
// single-qubit gates, CNOTs and barriers over random qubit subsets.
func randomCircuit(rng *rand.Rand, nq, ng int) *Circuit {
	c := New("rand", nq)
	for i := 0; i < ng; i++ {
		switch rng.Intn(3) {
		case 0:
			c.Append(NewGate1(GateH, rng.Intn(nq)))
		case 1:
			a := rng.Intn(nq)
			b := rng.Intn(nq - 1)
			if b >= a {
				b++
			}
			c.Append(NewGate2(GateCNOT, a, b))
		default:
			c.AppendBarrier(rng.Perm(nq)[:1+rng.Intn(nq)]...)
		}
	}
	return c
}

// longestPath is Depth by definition: a gate's level is one more than
// the deepest level among its predecessors, and a predecessor is, for
// each operand, the last earlier gate touching it, found by scanning
// back.
func longestPath(c *Circuit) int {
	level := make([]int, len(c.Gates))
	deepest := 0
	for i := range c.Gates {
		level[i] = 1
		for _, q := range c.Qubits(i) {
			for j := i - 1; j >= 0; j-- {
				if slices.Contains(c.Qubits(j), q) {
					level[i] = max(level[i], level[j]+1)
					break
				}
			}
		}
		deepest = max(deepest, level[i])
	}
	return deepest
}

// TestDepthMatchesLongestPath holds ComputeStats' Depth to longestPath
// on a hand-made circuit and on random circuits with barriers among the
// gates.
func TestDepthMatchesLongestPath(t *testing.T) {
	c := New("chain", 3)
	c.Append(
		NewGate1(GateH, 0),       // level 1
		NewGate2(GateCNOT, 0, 1), // 2: after gate 0
		NewGate1(GateH, 2),       // 1
		NewGate2(GateCNOT, 1, 2), // 3: after gates 1 and 2
	)
	if got := ComputeStats(c).Depth; got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	f := func(seed int64, nqRaw, ngRaw uint8) bool {
		nq := int(nqRaw%16) + 2
		ng := int(ngRaw % 200)
		c := randomCircuit(rand.New(rand.NewSource(seed)), nq, ng)
		got, want := ComputeStats(c).Depth, longestPath(c)
		if got != want {
			t.Logf("seed %d, %d qubits, %d gates: Depth %d, longest path %d", seed, nq, ng, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStatsAndPatterns(t *testing.T) {
	// Nearest-neighbor circuit.
	nn := New("nn", 8)
	for i := 0; i < 7; i++ {
		nn.Append(NewGate2(GateCNOT, i, i+1))
	}
	s := ComputeStats(nn)
	if s.Pattern != PatternNearestNeighbor {
		t.Errorf("nn pattern = %s", s.Pattern)
	}
	if s.NNFraction != 1.0 {
		t.Errorf("nn fraction = %f", s.NNFraction)
	}

	// All-distance circuit (QFT-like pairs).
	all := New("all", 8)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			all.Append(NewGate2(GateCZ, i, j))
		}
	}
	s = ComputeStats(all)
	if s.Pattern != PatternAllDistances {
		t.Errorf("all pattern = %s (mean=%f max=%d)", s.Pattern, s.MeanDist, s.MaxDistance)
	}
	if s.MaxDistance != 7 {
		t.Errorf("max distance = %d, want 7", s.MaxDistance)
	}
}

func TestBuilderHappyPath(t *testing.T) {
	b := NewBuilder("b", 3)
	b.H(0).CNOT(0, 1).CZ(1, 2).RZ(2, 0.5).MeasureAll()
	c, err := b.Circuit()
	if err != nil {
		t.Fatalf("builder: %v", err)
	}
	if len(c.Gates) != 4+3 {
		t.Errorf("gate count = %d", len(c.Gates))
	}
}

func TestBuilderErrorLatch(t *testing.T) {
	b := NewBuilder("b", 2)
	b.H(5) // invalid
	b.H(0) // should be ignored after error
	if _, err := b.Circuit(); err == nil {
		t.Fatal("expected error from builder")
	}
	if b.Err() == nil {
		t.Fatal("Err() should be set")
	}
	b2 := NewBuilder("b2", 0)
	if b2.Err() == nil {
		t.Fatal("zero-qubit builder should latch an error")
	}
}

func TestBuilderToffoli(t *testing.T) {
	c := NewBuilder("tof", 3).Toffoli(0, 1, 2).MustCircuit()
	if got := c.TwoQubitGates(); got != 6 {
		t.Errorf("Toffoli CNOT count = %d, want 6", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMustCircuitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCircuit should panic on invalid builder")
		}
	}()
	NewBuilder("bad", 1).H(9).MustCircuit()
}

func TestGateString(t *testing.T) {
	g := NewGate2P(GateCPhase, 1, 2, 0.25)
	if got := g.String(); got != "cp(0.25) q[1],q[2]" {
		t.Errorf("String = %q", got)
	}
	if got := NewGate1(GateH, 0).String(); got != "h q[0]" {
		t.Errorf("String = %q", got)
	}
}
