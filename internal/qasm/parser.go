package qasm

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/circuit"
)

// MaxQubits bounds the total size of a program's quantum registers. A
// whole-register operand expands to one index per qubit, so without a
// bound a few bytes of source could ask for gigabytes. It is far above
// any benchmark the repository builds (apps.MaxSizedQubits) and far below
// what a circuit's 32-bit operands hold (circuit.MaxQubits).
const MaxQubits = 1 << 20

// MaxRecords bounds a program's gate records plus barrier operands: each
// whole-register operand adds a register's worth of them for a few bytes
// of source. It admits QFT@1024, the largest circuit the repository
// builds (2,620,928 gates), so every built-in app's OpenQASM parses back.
const MaxRecords = 3 << 20

// Parse reads OpenQASM 2.0 source and produces circuit IR. Multiple
// quantum registers are flattened into one index space in declaration
// order. Classical registers are accepted and ignored beyond measure
// targets. name becomes the circuit name.
func Parse(name, src string) (*circuit.Circuit, error) {
	p := &parser{lex: newLexer(src), regs: map[string]qreg{}, c: circuit.New(name, 0)}
	if err := p.parse(); err != nil {
		return nil, err
	}
	if p.totalQubits == 0 {
		return nil, fmt.Errorf("qasm: no qreg declared")
	}
	p.c.NumQubits = p.totalQubits
	if err := p.c.Validate(); err != nil {
		return nil, fmt.Errorf("qasm: %w", err)
	}
	return p.c, nil
}

// qreg records a quantum register's position in the flat index space.
type qreg struct {
	offset, size int
}

type parser struct {
	lex         *lexer
	tok         token
	peeked      bool
	regs        map[string]qreg
	cregs       map[string]int
	totalQubits int
	records     int // gate records and barrier operands, against MaxRecords
	// c collects the gates; its qubit count is set once every qreg is
	// declared.
	c *circuit.Circuit
}

// aliasKinds maps QASM gate names that differ from our IR mnemonics.
var aliasKinds = map[string]circuit.Kind{
	"cu1":  circuit.GateCPhase, // older Qiskit exports
	"CX":   circuit.GateCNOT,   // OpenQASM builtin
	"id":   circuit.GateZ,      // identity approximated as Z-frame no-op
	"u1":   circuit.GateRZ,
	"sdag": circuit.GateSdg,
	"tdag": circuit.GateTdg,
}

func (p *parser) next() (token, error) {
	if p.peeked {
		p.peeked = false
		return p.tok, nil
	}
	return p.lex.next()
}

func (p *parser) peek() (token, error) {
	if !p.peeked {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.tok = t
		p.peeked = true
	}
	return p.tok, nil
}

func (p *parser) expectSymbol(sym string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if (t.kind != tokSymbol && t.kind != tokArrow) || t.text != sym {
		return fmt.Errorf("qasm: line %d: expected %q, found %s", t.line, sym, t)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t, err := p.next()
	if err != nil {
		return token{}, err
	}
	if t.kind != tokIdent {
		return token{}, fmt.Errorf("qasm: line %d: expected identifier, found %s", t.line, t)
	}
	return t, nil
}

func (p *parser) parse() error {
	p.cregs = map[string]int{}
	for {
		t, err := p.next()
		if err != nil {
			return err
		}
		switch {
		case t.kind == tokEOF:
			return nil
		case t.kind == tokIdent && t.text == "OPENQASM":
			if _, err := p.next(); err != nil { // version number
				return err
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
		case t.kind == tokIdent && t.text == "include":
			if _, err := p.next(); err != nil { // the file name string
				return err
			}
			if err := p.expectSymbol(";"); err != nil {
				return err
			}
		case t.kind == tokIdent && t.text == "qreg":
			if err := p.parseReg(true); err != nil {
				return err
			}
		case t.kind == tokIdent && t.text == "creg":
			if err := p.parseReg(false); err != nil {
				return err
			}
		case t.kind == tokIdent && t.text == "barrier":
			if err := p.parseBarrier(t.line); err != nil {
				return err
			}
		case t.kind == tokIdent && t.text == "measure":
			if err := p.parseMeasure(t.line); err != nil {
				return err
			}
		case t.kind == tokIdent:
			if err := p.parseGate(t); err != nil {
				return err
			}
		default:
			return fmt.Errorf("qasm: line %d: unexpected %s", t.line, t)
		}
	}
}

func (p *parser) parseReg(quantum bool) error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("["); err != nil {
		return err
	}
	sizeTok, err := p.next()
	if err != nil {
		return err
	}
	size, err := strconv.Atoi(sizeTok.text)
	if err != nil || size <= 0 {
		return fmt.Errorf("qasm: line %d: bad register size %q", sizeTok.line, sizeTok.text)
	}
	if err := p.expectSymbol("]"); err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	if quantum {
		if _, dup := p.regs[name.text]; dup {
			return fmt.Errorf("qasm: line %d: duplicate qreg %q", name.line, name.text)
		}
		if size > MaxQubits-p.totalQubits {
			return fmt.Errorf("qasm: line %d: qreg %s[%d] takes the registers past %d qubits",
				name.line, name.text, size, MaxQubits)
		}
		p.regs[name.text] = qreg{offset: p.totalQubits, size: size}
		p.totalQubits += size
	} else {
		p.cregs[name.text] = size
	}
	return nil
}

// operand denotes the n flat qubit indexes from first, unexpanded.
type operand struct{ first, n int }

// at is op's qubit in gate i of a broadcast: a one-qubit op gives its
// qubit to every gate.
func (op operand) at(i int) int { return op.first + min(i, op.n-1) }

// parseOperand parses "name" (whole register) or "name[i]" and returns the
// flat qubit indexes it denotes.
func (p *parser) parseOperand() (operand, error) {
	name, err := p.expectIdent()
	if err != nil {
		return operand{}, err
	}
	reg, ok := p.regs[name.text]
	if !ok {
		return operand{}, fmt.Errorf("qasm: line %d: unknown qreg %q", name.line, name.text)
	}
	t, err := p.peek()
	if err != nil {
		return operand{}, err
	}
	if t.kind == tokSymbol && t.text == "[" {
		p.peeked = false
		idxTok, err := p.next()
		if err != nil {
			return operand{}, err
		}
		idx, err := strconv.Atoi(idxTok.text)
		if err != nil || idx < 0 || idx >= reg.size {
			return operand{}, fmt.Errorf("qasm: line %d: index %q out of range for %s[%d]",
				idxTok.line, idxTok.text, name.text, reg.size)
		}
		if err := p.expectSymbol("]"); err != nil {
			return operand{}, err
		}
		return operand{first: reg.offset + idx, n: 1}, nil
	}
	return operand{first: reg.offset, n: reg.size}, nil
}

// reserve counts n records before they are appended, naming line if they
// would take the program past MaxRecords.
func (p *parser) reserve(n, line int) error {
	if n > MaxRecords-p.records {
		return fmt.Errorf("qasm: line %d: statement takes the program past %d gate records and barrier operands",
			line, MaxRecords)
	}
	p.records += n
	return nil
}

// parseClassicalOperand consumes a creg reference (measure target).
func (p *parser) parseClassicalOperand() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, ok := p.cregs[name.text]; !ok {
		return fmt.Errorf("qasm: line %d: unknown creg %q", name.line, name.text)
	}
	t, err := p.peek()
	if err != nil {
		return err
	}
	if t.kind == tokSymbol && t.text == "[" {
		p.peeked = false
		if _, err := p.next(); err != nil {
			return err
		}
		if err := p.expectSymbol("]"); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseMeasure(line int) error {
	op, err := p.parseOperand()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("->"); err != nil {
		return err
	}
	if err := p.parseClassicalOperand(); err != nil {
		return err
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	return p.emit(circuit.GateMeasure, 0, []operand{op}, line)
}

func (p *parser) parseBarrier(line int) error {
	if err := p.reserve(1, line); err != nil { // the barrier's own record
		return err
	}
	p.c.AppendBarrier()
	for {
		op, err := p.parseOperand()
		if err != nil {
			return err
		}
		if err := p.reserve(op.n, line); err != nil {
			return err
		}
		p.c.ExtendBarrier(op.first, op.n)
		t, err := p.next()
		if err != nil {
			return err
		}
		if t.kind == tokSymbol && t.text == "," {
			continue
		}
		if t.kind == tokSymbol && t.text == ";" {
			break
		}
		return fmt.Errorf("qasm: line %d: expected , or ; in barrier, found %s", t.line, t)
	}
	return nil
}

func (p *parser) parseGate(name token) error {
	kind := circuit.KindByName(name.text)
	if kind == circuit.Invalid {
		if alias, ok := aliasKinds[name.text]; ok {
			kind = alias
		} else {
			return fmt.Errorf("qasm: line %d: unsupported gate %q", name.line, name.text)
		}
	}
	var param float64
	t, err := p.peek()
	if err != nil {
		return err
	}
	if t.kind == tokSymbol && t.text == "(" {
		p.peeked = false
		param, err = p.parseExpr()
		if err != nil {
			return err
		}
		if math.IsInf(param, 0) || math.IsNaN(param) {
			return fmt.Errorf("qasm: line %d: gate %s parameter is not finite", name.line, name.text)
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
	}
	var operands []operand
	for {
		op, err := p.parseOperand()
		if err != nil {
			return err
		}
		operands = append(operands, op)
		t, err := p.next()
		if err != nil {
			return err
		}
		if t.kind == tokSymbol && t.text == "," {
			continue
		}
		if t.kind == tokSymbol && t.text == ";" {
			break
		}
		return fmt.Errorf("qasm: line %d: expected , or ; after operand, found %s", t.line, t)
	}
	return p.emit(kind, param, operands, name.line)
}

// emit expands whole-register broadcasts and appends the gates.
func (p *parser) emit(kind circuit.Kind, param float64, operands []operand, line int) error {
	arity := kind.Arity()
	if arity > 0 && len(operands) != arity {
		return fmt.Errorf("qasm: line %d: gate %s wants %d operands, got %d", line, kind, arity, len(operands))
	}
	// Broadcast length: all multi-qubit operands must agree.
	width := 1
	for _, op := range operands {
		if op.n > 1 {
			if width != 1 && width != op.n {
				return fmt.Errorf("qasm: line %d: mismatched register widths", line)
			}
			width = op.n
		}
	}
	if err := p.reserve(width, line); err != nil {
		return err
	}
	p.c.Gates = slices.Grow(p.c.Gates, width)
	// The operand count matches the kind's arity of one or two.
	for i := 0; i < width; i++ {
		if len(operands) == 1 {
			p.c.Append(circuit.NewGate1P(kind, operands[0].at(i), param))
		} else {
			p.c.Append(circuit.NewGate2P(kind, operands[0].at(i), operands[1].at(i), param))
		}
	}
	return nil
}

// parseExpr evaluates a constant parameter expression: + - * / with
// parentheses, pi, and numeric literals.
func (p *parser) parseExpr() (float64, error) {
	left, err := p.parseTerm()
	if err != nil {
		return 0, err
	}
	for {
		t, err := p.peek()
		if err != nil {
			return 0, err
		}
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.peeked = false
		right, err := p.parseTerm()
		if err != nil {
			return 0, err
		}
		if t.text == "+" {
			left += right
		} else {
			left -= right
		}
	}
}

func (p *parser) parseTerm() (float64, error) {
	left, err := p.parseFactor()
	if err != nil {
		return 0, err
	}
	for {
		t, err := p.peek()
		if err != nil {
			return 0, err
		}
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/") {
			return left, nil
		}
		p.peeked = false
		right, err := p.parseFactor()
		if err != nil {
			return 0, err
		}
		if t.text == "*" {
			left *= right
		} else {
			if right == 0 {
				return 0, fmt.Errorf("qasm: line %d: division by zero", t.line)
			}
			left /= right
		}
	}
}

func (p *parser) parseFactor() (float64, error) {
	t, err := p.next()
	if err != nil {
		return 0, err
	}
	switch {
	case t.kind == tokSymbol && t.text == "-":
		v, err := p.parseFactor()
		return -v, err
	case t.kind == tokSymbol && t.text == "+":
		return p.parseFactor()
	case t.kind == tokSymbol && t.text == "(":
		v, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		return v, p.expectSymbol(")")
	case t.kind == tokIdent && t.text == "pi":
		return math.Pi, nil
	case t.kind == tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return 0, fmt.Errorf("qasm: line %d: bad number %q", t.line, t.text)
		}
		return v, nil
	}
	return 0, fmt.Errorf("qasm: line %d: unexpected %s in expression", t.line, t)
}
