package qasm

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
)

// Write renders circuit IR as OpenQASM 2.0 in the dialect Parse accepts:
// one flat qreg q[n], one creg c[n] for measurements, and the standard
// gate mnemonics (rzz, cp and ms included).
func Write(c *circuit.Circuit) (string, error) {
	if err := c.Validate(); err != nil {
		return "", fmt.Errorf("qasm: %w", err)
	}
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	fmt.Fprintf(&b, "creg c[%d];\n", c.NumQubits)
	for gi, g := range c.Gates {
		qs := c.Qubits(gi)
		switch g.Kind {
		case circuit.GateMeasure:
			fmt.Fprintf(&b, "measure q[%d] -> c[%d];\n", qs[0], qs[0])
		case circuit.GateBarrier:
			b.WriteString("barrier ")
			for i, q := range qs {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "q[%d]", q)
			}
			b.WriteString(";\n")
		default:
			b.WriteString(g.Kind.String())
			if g.Kind.Parameterized() {
				fmt.Fprintf(&b, "(%.17g)", g.Param)
			}
			b.WriteString(" ")
			for i, q := range qs {
				if i > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "q[%d]", q)
			}
			b.WriteString(";\n")
		}
	}
	return b.String(), nil
}
