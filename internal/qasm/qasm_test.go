package qasm

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/circuit"
)

const sample = `
OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
cp(-pi/4) q[1],q[2];
barrier q[0],q[1];
measure q[0] -> c[0];
`

func TestParseSample(t *testing.T) {
	c, err := Parse("sample", sample)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 {
		t.Errorf("qubits = %d", c.NumQubits)
	}
	wantKinds := []circuit.Kind{
		circuit.GateH, circuit.GateCNOT, circuit.GateRZ,
		circuit.GateCPhase, circuit.GateBarrier, circuit.GateMeasure,
	}
	if len(c.Gates) != len(wantKinds) {
		t.Fatalf("gate count = %d, want %d", len(c.Gates), len(wantKinds))
	}
	for i, k := range wantKinds {
		if c.Gates[i].Kind != k {
			t.Errorf("gate %d kind = %s, want %s", i, c.Gates[i].Kind, k)
		}
	}
	if math.Abs(c.Gates[2].Param-math.Pi/2) > 1e-15 {
		t.Errorf("rz param = %g", c.Gates[2].Param)
	}
	if math.Abs(c.Gates[3].Param+math.Pi/4) > 1e-15 {
		t.Errorf("cp param = %g", c.Gates[3].Param)
	}
}

func TestWholeRegisterBroadcast(t *testing.T) {
	src := `OPENQASM 2.0; qreg q[4]; creg c[4]; h q; measure q -> c;`
	c, err := Parse("bcast", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CountKind(circuit.GateH); got != 4 {
		t.Errorf("H broadcast = %d, want 4", got)
	}
	if got := c.Measurements(); got != 4 {
		t.Errorf("measure broadcast = %d, want 4", got)
	}
}

func TestMultipleQregsFlatten(t *testing.T) {
	src := `OPENQASM 2.0; qreg a[2]; qreg b[2]; creg c[4]; cx a[1],b[0];`
	c, err := Parse("multi", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 4 {
		t.Errorf("qubits = %d", c.NumQubits)
	}
	if qs := c.Qubits(0); len(qs) != 2 || qs[0] != 1 || qs[1] != 2 {
		t.Errorf("flattened operands = %v, want [1 2]", qs)
	}
}

func TestAliases(t *testing.T) {
	src := `OPENQASM 2.0; qreg q[2]; cu1(pi/8) q[0],q[1]; u1(0.5) q[0]; CX q[0],q[1];`
	c, err := Parse("alias", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Kind != circuit.GateCPhase || c.Gates[1].Kind != circuit.GateRZ || c.Gates[2].Kind != circuit.GateCNOT {
		t.Errorf("alias kinds = %v %v %v", c.Gates[0].Kind, c.Gates[1].Kind, c.Gates[2].Kind)
	}
}

func TestExpressionEvaluation(t *testing.T) {
	cases := map[string]float64{
		"rz(2*pi) q[0];":      2 * math.Pi,
		"rz(pi/4+pi/4) q[0];": math.Pi / 2,
		"rz(-(1+2)*3) q[0];":  -9,
		"rz(1.5e-3) q[0];":    1.5e-3,
		"rz(3/4/2) q[0];":     0.375,
		"rz((pi)) q[0];":      math.Pi,
		"rz(+2) q[0];":        2,
		"rz(1 - 2 - 3) q[0];": -4,
	}
	for src, want := range cases {
		c, err := Parse("expr", "OPENQASM 2.0; qreg q[1]; "+src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if got := c.Gates[0].Param; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: param = %g, want %g", src, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                                  // no qreg
		`qreg q[0];`,                        // zero size
		`qreg q[2]; qreg q[2];`,             // duplicate
		`qreg q[2]; h q[5];`,                // index out of range
		`qreg q[2]; zz q[0],q[1];`,          // unknown gate name
		`qreg q[2]; cx q[0];`,               // missing operand
		`qreg q[2]; cx q[0],q[1]`,           // missing semicolon
		`qreg q[2]; rz(1/0) q[0];`,          // division by zero
		`qreg q[2]; rz(pi q[0];`,            // unbalanced paren
		`qreg q[2]; measure q[0] -> c[0];`,  // unknown creg
		`qreg q[2]; h r[0];`,                // unknown register
		`qreg q[2]; cx q,qq;`,               // unknown second reg
		`qreg q[3]; qreg r[2]; cx q,r;`,     // width mismatch
		`qreg q[2]; include "x.inc"`,        // missing ; after include
		"qreg q[2]; h q[0]; \"unterminated", // bad string
		`qreg q[2]; @ q[0];`,                // bad rune
	}
	for _, src := range bad {
		if _, err := Parse("bad", "OPENQASM 2.0; "+src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestRegisterBound rejects registers whose total passes MaxQubits, with
// the line of the register that passes it, before any operand list of
// that size is built; a total at the bound parses.
func TestRegisterBound(t *testing.T) {
	for _, tc := range []struct {
		src, want string
	}{
		{fmt.Sprintf("OPENQASM 2.0;\nqreg q[%d];\nbarrier q;\n", MaxQubits+1),
			fmt.Sprintf("qasm: line 2: qreg q[%d] takes the registers past %d qubits", MaxQubits+1, MaxQubits)},
		{fmt.Sprintf("OPENQASM 2.0;\nqreg a[%d];\nh a[0];\nqreg b[2];\n", MaxQubits-1),
			fmt.Sprintf("qasm: line 4: qreg b[2] takes the registers past %d qubits", MaxQubits)},
	} {
		if _, err := Parse("big", tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%.40q) error = %v, want %q", tc.src, err, tc.want)
		}
	}
	c, err := Parse("edge", fmt.Sprintf("OPENQASM 2.0;\nqreg a[%d];\nqreg b[1];\ncx a[0],b[0];\n", MaxQubits-1))
	if err != nil {
		t.Fatalf("registers totalling MaxQubits: %v", err)
	}
	if c.NumQubits != MaxQubits || c.Qubits(0)[1] != MaxQubits-1 {
		t.Errorf("got %d qubits and operands %v, want %d and [0 %d]", c.NumQubits, c.Qubits(0), MaxQubits, MaxQubits-1)
	}
	if MaxQubits < apps.MaxSizedQubits || MaxQubits > circuit.MaxQubits {
		t.Errorf("MaxQubits %d outside [%d, %d]", MaxQubits, apps.MaxSizedQubits, circuit.MaxQubits)
	}
}

// TestRecordBound rejects a statement that would take the gate records
// plus barrier operands past MaxRecords, naming its line, before it
// appends the broadcast or operand that would pass. Each source is just
// past the bound: three register-wide barrier operands, or two and a
// register-wide broadcast, on a MaxQubits register, and each allocates
// at most about 100 MB. The bound admits QFT@1024, the largest circuit
// the repository builds.
func TestRecordBound(t *testing.T) {
	if MaxRecords != 3*MaxQubits {
		t.Fatalf("MaxRecords = %d: the sources below assume 3×MaxQubits", MaxRecords)
	}
	regs := fmt.Sprintf("OPENQASM 2.0;\nqreg q[%d];\ncreg c[1];\n", MaxQubits)
	for _, tc := range []struct {
		src      string
		line     int
		maxAlloc uint64
	}{
		{regs + "barrier q,q,q;\n", 4, 100 << 20},
		{regs + "barrier q,q;\nh q;\n", 5, 100 << 20},
		{regs + "barrier q,q;\nmeasure q -> c;\n", 5, 100 << 20},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse("big", tc.src)
		runtime.ReadMemStats(&after)
		want := fmt.Sprintf("qasm: line %d: statement takes the program past %d gate records and barrier operands", tc.line, MaxRecords)
		if err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error = %v, want %q", tc.src, err, want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > tc.maxAlloc {
			t.Errorf("Parse(%q) allocated %d bytes, want at most %d", tc.src, alloc, tc.maxAlloc)
		}
	}

	c, err := apps.ByName("QFT@1024")
	if err != nil {
		t.Fatal(err)
	}
	records := len(c.Gates)
	for i := range c.Gates {
		if c.Gates[i].Kind == circuit.GateBarrier {
			records += len(c.Qubits(i))
		}
	}
	if records > MaxRecords {
		t.Errorf("QFT@1024 has %d gate records and barrier operands, past MaxRecords %d", records, MaxRecords)
	}
}

// smallBarriers is a 28 KB source of 2,000 one-qubit barriers on a
// register of MaxQubits qubits.
var smallBarriers = fmt.Sprintf("OPENQASM 2.0;\nqreg q[%d];\n", MaxQubits) +
	strings.Repeat("barrier q[0];\n", 2000)

// TestBarrierCheckCost parses and validates smallBarriers, whose
// barriers name one qubit each: the repeat check must cost each barrier
// its own operands, not a bitset the size of the register.
func TestBarrierCheckCost(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Parse("barriers", smallBarriers)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := c.CountKind(circuit.GateBarrier); got != 2000 {
		t.Errorf("parsed %d barriers, want 2000", got)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("Parse and Validate allocated %d bytes, want at most %d", alloc, 16<<20)
	}
}

// TestNonFiniteParameter rejects an angle that overflows to infinity or
// NaN, which Write could not render back as a number.
func TestNonFiniteParameter(t *testing.T) {
	for _, expr := range []string{"1e308*10", "-1e308*10", "1e308*10-1e308*10", "pi/1e-320"} {
		src := "OPENQASM 2.0;\nqreg q[1];\nrx(" + expr + ") q[0];\n"
		want := "qasm: line 3: gate rx parameter is not finite"
		if _, err := Parse("inf", src); err == nil || err.Error() != want {
			t.Errorf("rx(%s): error = %v, want %q", expr, err, want)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig := circuit.NewBuilder("rt", 4).
		H(0).CNOT(0, 1).RZ(2, 0.125).CPhase(1, 3, math.Pi/8).ZZ(2, 3, 1.5).
		MS(0, 2, math.Pi/4).Swap(1, 2).X(3).Y(2).Z(1).S(0).T(1).Tdg(2).
		MeasureAll().MustCircuit()
	src, err := Write(orig)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse("rt", src)
	if err != nil {
		t.Fatalf("round-trip parse: %v\nsource:\n%s", err, src)
	}
	if len(parsed.Gates) != len(orig.Gates) {
		t.Fatalf("gate count %d != %d", len(parsed.Gates), len(orig.Gates))
	}
	for i := range orig.Gates {
		a, b := orig.Gates[i], parsed.Gates[i]
		if a.Kind != b.Kind || math.Abs(a.Param-b.Param) > 1e-15 {
			t.Errorf("gate %d: %v != %v", i, a, b)
		}
		for j, q := range orig.Qubits(i) {
			if q != parsed.Qubits(i)[j] {
				t.Errorf("gate %d operand %d: %d != %d", i, j, q, parsed.Qubits(i)[j])
			}
		}
	}
}

func TestRoundTripSuiteApps(t *testing.T) {
	// The full benchmark suite must survive a write/parse round trip.
	for _, spec := range apps.Suite() {
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		src, err := Write(c)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		parsed, err := Parse(spec.Name, src)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if parsed.TwoQubitGates() != c.TwoQubitGates() {
			t.Errorf("%s: 2Q count %d != %d", spec.Name, parsed.TwoQubitGates(), c.TwoQubitGates())
		}
		if parsed.NumQubits != c.NumQubits {
			t.Errorf("%s: qubits %d != %d", spec.Name, parsed.NumQubits, c.NumQubits)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Random circuits survive write/parse exactly.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		b := circuit.NewBuilder("prop", n)
		rng := seededRand(seed)
		for i := 0; i < 40; i++ {
			q := int(rng() % uint64(n))
			r := int(rng() % uint64(n-1))
			if r >= q {
				r++
			}
			switch rng() % 5 {
			case 0:
				b.H(q)
			case 1:
				b.RZ(q, float64(rng()%1000)/999)
			case 2:
				b.CNOT(q, r)
			case 3:
				b.ZZ(q, r, float64(rng()%1000)/999)
			default:
				b.CZ(q, r)
			}
		}
		c := b.MustCircuit()
		src, err := Write(c)
		if err != nil {
			return false
		}
		parsed, err := Parse("prop", src)
		if err != nil {
			return false
		}
		if len(parsed.Gates) != len(c.Gates) {
			return false
		}
		for i := range c.Gates {
			if parsed.Gates[i].Kind != c.Gates[i].Kind ||
				parsed.Gates[i].Param != c.Gates[i].Param {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// seededRand is a tiny xorshift generator for property tests.
func seededRand(seed int64) func() uint64 {
	s := uint64(seed)*2685821657736338717 + 1
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	c := circuit.New("bad", 2)
	c.Append(circuit.NewGate1(circuit.GateH, 9))
	if _, err := Write(c); err == nil {
		t.Error("writer should reject invalid circuits")
	}
}

func TestWriterOutputShape(t *testing.T) {
	c := circuit.NewBuilder("shape", 2).H(0).MeasureAll().MustCircuit()
	src, err := Write(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OPENQASM 2.0;", "qreg q[2];", "h q[0];", "measure q[1] -> c[1];"} {
		if !strings.Contains(src, want) {
			t.Errorf("output missing %q:\n%s", want, src)
		}
	}
}
