package qasm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/circuit"
)

// FuzzQASMParse drives the recursive-descent OpenQASM frontend with
// arbitrary bytes. The contract under fuzzing: Parse never panics, never
// over-reads (the scanner is bounds-checked, so a panic would surface
// here), and anything it accepts is a valid circuit — the parser is the
// service's only path for user-supplied programs, so "garbage in, error
// out" is a security property, not a nicety. An accepted source must also
// round-trip: Write then Parse gives the same gates, barrier operands
// included, and writing that circuit again gives identical bytes.
func FuzzQASMParse(f *testing.F) {
	seeds := []string{
		"",
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0];\n",
		"OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nrz(pi/4) q[2];\nbarrier q;\nmeasure q -> c;\n",
		"OPENQASM 2.0;\nqreg q[1];\nu3(0.1,0.2,0.3) q[0];\n",
		"OPENQASM 3.0;\nqreg q[1];",
		"qreg q[0];",
		"OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];",
		"OPENQASM 2.0;\nqreg q[1];\nh q[99];",
		"// comment only",
		"OPENQASM 2.0;\nqreg q[1];\nrx(1e309) q[0];",
		"OPENQASM 2.0;\nqreg q[1];\nh\x00q[0];",
		"OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncreg c[5];\ncx a[1],b[0];\nbarrier a,b[2];\nbarrier b;\nmeasure a -> c;\n",
		fmt.Sprintf("OPENQASM 2.0;\nqreg q[%d];\nbarrier q;\n", MaxQubits+1),
		fmt.Sprintf("OPENQASM 2.0;\nqreg q[%d];\ncreg c[1];\nbarrier q,q,q;\n", MaxQubits),
		"OPENQASM 2.0;\nqreg q[1];\nrx(1e308*10) q[0];\n",
		smallBarriers,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse("fuzz", src)
		if err != nil {
			if c != nil {
				t.Fatalf("Parse returned both a circuit and an error: %v", err)
			}
			return
		}
		if c == nil {
			t.Fatal("Parse returned nil circuit with nil error")
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("accepted circuit fails validation: %v\nsource: %q", verr, src)
		}
		out, err := Write(c)
		if err != nil {
			t.Fatalf("Write of an accepted circuit: %v\nsource: %q", err, src)
		}
		back, err := Parse("fuzz", out)
		if err != nil {
			t.Fatalf("Parse of written circuit: %v\nwritten: %q", err, out)
		}
		if i, ok := sameGates(c, back); !ok {
			t.Fatalf("gate %d changed in the round trip\nsource: %q\nwritten: %q", i, src, out)
		}
		if again, err := Write(back); err != nil || again != out {
			t.Fatalf("second Write differs (err %v)\nfirst:  %q\nsecond: %q", err, out, again)
		}
	})
}

// sameGates reports whether a and b hold the same gates: kinds, operands
// (a barrier's included) and, for parameterized kinds, the angle's bits.
// It returns the first differing gate's index when they do not.
func sameGates(a, b *circuit.Circuit) (int, bool) {
	if a.NumQubits != b.NumQubits || len(a.Gates) != len(b.Gates) {
		return min(len(a.Gates), len(b.Gates)), false
	}
	for i, ga := range a.Gates {
		gb := b.Gates[i]
		if ga.Kind != gb.Kind || !slices.Equal(a.Qubits(i), b.Qubits(i)) ||
			ga.Kind.Parameterized() && math.Float64bits(ga.Param) != math.Float64bits(gb.Param) {
			return i, false
		}
	}
	return 0, true
}
