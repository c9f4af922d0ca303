// Package apps generates the six NISQ benchmark applications of the
// paper's Table II: Supremacy, QAOA, SquareRoot, QFT, Adder and BV.
//
// The paper obtained these circuits from ScaffCC, Cirq and an external
// circuit generator. Those toolchains are not available here, so each
// benchmark is regenerated from its published construction with the same
// qubit count, two-qubit-gate count (exact where the construction pins it,
// within a few percent otherwise) and communication pattern — the three
// properties the QCCD compiler and simulator actually observe. The
// substitution is documented in DESIGN.md §3.
package apps

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// Spec describes one benchmark instance: a named generator plus the
// paper-reported reference numbers it is expected to match.
type Spec struct {
	// Name is the workload name used throughout reports ("QFT", ...).
	Name string
	// PaperQubits and PaperGate2Q are the Table II reference values.
	PaperQubits, PaperGate2Q int
	// PaperPattern is the Table II communication-pattern label.
	PaperPattern string
	// Build generates the circuit.
	Build func() (*circuit.Circuit, error)
}

// Suite returns the paper's benchmark suite in Table II order.
func Suite() []Spec {
	return []Spec{
		{
			Name: "Supremacy", PaperQubits: 64, PaperGate2Q: 560,
			PaperPattern: "Nearest neighbor gates",
			Build:        func() (*circuit.Circuit, error) { return Supremacy(8, 8, 560, 1) },
		},
		{
			Name: "QAOA", PaperQubits: 64, PaperGate2Q: 1260,
			PaperPattern: "Nearest neighbor gates",
			Build:        func() (*circuit.Circuit, error) { return QAOA(64, 20, 1) },
		},
		{
			Name: "SquareRoot", PaperQubits: 78, PaperGate2Q: 1028,
			PaperPattern: "Short and long-range gates",
			Build:        func() (*circuit.Circuit, error) { return SquareRoot(39) },
		},
		{
			Name: "QFT", PaperQubits: 64, PaperGate2Q: 4032,
			PaperPattern: "All distances",
			Build:        func() (*circuit.Circuit, error) { return QFT(64) },
		},
		{
			Name: "Adder", PaperQubits: 64, PaperGate2Q: 545,
			PaperPattern: "Short range gates",
			Build:        func() (*circuit.Circuit, error) { return Adder(31) },
		},
		{
			Name: "BV", PaperQubits: 64, PaperGate2Q: 64,
			PaperPattern: "Short and long-range gates",
			Build:        func() (*circuit.Circuit, error) { return BV(64) },
		},
	}
}

// ByName builds the named benchmark from the suite. Matching is
// case-insensitive on the ASCII letters used by the suite names.
//
// A name of the form "<base>@<n>" builds a size-n instance of the base
// benchmark (e.g. "QFT@128", "QAOA@200"), which is what lets device
// scaling studies flow through the same design-point machinery — and the
// same outcome cache — as the paper-sized workloads. The size convention
// varies per family (for BV n counts data qubits, so the circuit holds
// one more):
//
//   - QFT@n:        n-qubit QFT, any n >= 1
//   - QAOA@n:       the paper's 20-layer ansatz on n qubits, n >= 2
//   - BV@n:         n data qubits plus the ancilla (n+1 total), n >= 1
//   - Adder@n:      two (n-2)/2-bit registers plus carries; n even, >= 4
//   - SquareRoot@n: n/2 search qubits; n even, >= 6
//   - Supremacy@n:  an 8×(n/8) grid at the paper's 8.75 gates/qubit
//     density; n divisible by 8, >= 16
//   - Surface@n:    distance-n rotated surface code, n rounds of
//     syndrome extraction over 2n²−1 qubits; n odd, 3 <= n <= 21
func ByName(name string) (*circuit.Circuit, error) {
	build, _, _, err := resolve(name)
	if err != nil {
		return nil, err
	}
	return build()
}

// resolve checks a benchmark name without building its circuit and
// returns its builder; ByName, ValidateName and SurfaceSpec all read a
// name through it. A sized "<base>@<n>" name also returns its family's
// base and n, which must satisfy the family's size rule and be spelled as
// strconv.Itoa prints it (no '+', no leading zero), so each instance has
// one spelling up to case and so one cache key and circuit-memo entry.
func resolve(name string) (build func() (*circuit.Circuit, error), base string, n int, err error) {
	for _, s := range Suite() {
		if equalFold(s.Name, name) {
			return s.Build, "", 0, nil
		}
	}
	at := strings.IndexByte(name, '@')
	if at <= 0 {
		return nil, "", 0, fmt.Errorf("apps: unknown benchmark %q (have %v)", name, Names())
	}
	base, size := name[:at], name[at+1:]
	n, err = strconv.Atoi(size)
	if err != nil || strconv.Itoa(n) != size {
		return nil, "", 0, fmt.Errorf("apps: bad size in benchmark name %q", name)
	}
	if n < 1 || n > MaxSizedQubits {
		return nil, "", 0, fmt.Errorf("apps: %s@%d: size must be in [1, %d]", base, n, MaxSizedQubits)
	}
	for _, fam := range sizedFamilies() {
		if !equalFold(fam.base, base) {
			continue
		}
		if fam.check != nil {
			if err := fam.check(n); err != nil {
				return nil, "", 0, err
			}
		}
		return func() (*circuit.Circuit, error) { return fam.build(n) }, fam.base, n, nil
	}
	return nil, "", 0, fmt.Errorf("apps: unknown sized benchmark %q (have %v)", base, Names())
}

// MaxSizedQubits bounds the size n of ByName's "<base>@<n>" form. Sized
// names reach the HTTP service unvalidated, and an unbounded n is a
// resource-exhaustion vector: a QFT@n circuit holds ~n²/2 gate records,
// so one request naming a huge size would build a multi-gigabyte circuit
// and pin it in the toolflow cache. The cap comfortably covers the
// TITAN-scale (500+ qubit) studies on the roadmap.
const MaxSizedQubits = 1024

// sizedFamily couples one "<base>@<n>" family's size rule with its
// builder, so ValidateName (request-time validation, no circuit built)
// and ByName (construction) can never drift apart.
type sizedFamily struct {
	base string
	// constraint is the human-readable size rule advertised by services.
	constraint string
	// check rejects family-specific bad sizes; nil accepts any n the
	// global [1, MaxSizedQubits] bound admits.
	check func(n int) error
	build func(n int) (*circuit.Circuit, error)
}

func sizedFamilies() []sizedFamily {
	return []sizedFamily{
		{base: "QFT", constraint: "any n >= 1", build: QFT},
		{
			base: "QAOA", constraint: "n >= 2",
			check: func(n int) error {
				if n < 2 {
					return fmt.Errorf("apps: QAOA@%d: size must be >= 2", n)
				}
				return nil
			},
			build: func(n int) (*circuit.Circuit, error) { return QAOA(n, 20, 1) },
		},
		{base: "BV", constraint: "n data qubits plus one ancilla (n+1 total), any n >= 1", build: BV},
		{
			base: "Adder", constraint: "n even, >= 4",
			check: func(n int) error {
				if n < 4 || n%2 != 0 {
					return fmt.Errorf("apps: Adder@%d: size must be even and >= 4", n)
				}
				return nil
			},
			build: func(n int) (*circuit.Circuit, error) { return Adder((n - 2) / 2) },
		},
		{
			base: "SquareRoot", constraint: "n even, >= 6",
			check: func(n int) error {
				if n < 6 || n%2 != 0 {
					return fmt.Errorf("apps: SquareRoot@%d: size must be even and >= 6", n)
				}
				return nil
			},
			build: func(n int) (*circuit.Circuit, error) { return SquareRoot(n / 2) },
		},
		{
			base: "Supremacy", constraint: "n a multiple of 8, >= 16",
			check: func(n int) error {
				if n < 16 || n%8 != 0 {
					return fmt.Errorf("apps: Supremacy@%d: size must be a multiple of 8, >= 16", n)
				}
				return nil
			},
			// The paper's 64-qubit instance runs 560 two-qubit gates; keep
			// the same per-qubit gate density as the grid widens.
			build: func(n int) (*circuit.Circuit, error) { return Supremacy(8, n/8, 560*n/64, 1) },
		},
		surfaceFamily(),
	}
}

// SizedForm documents one sized benchmark family for API introspection.
type SizedForm struct {
	// Base is the family name used left of the '@'.
	Base string
	// Constraint states the accepted sizes in prose; the global
	// [1, MaxSizedQubits] bound applies on top.
	Constraint string
}

// SizedForms lists every "<base>@<n>" family with its size rule, in
// Table II order, so services can advertise the sized form instead of
// leaving it discoverable only by error message.
func SizedForms() []SizedForm {
	var forms []SizedForm
	for _, fam := range sizedFamilies() {
		forms = append(forms, SizedForm{Base: fam.base, Constraint: fam.constraint})
	}
	return forms
}

// ValidateName reports whether name would be accepted by ByName, without
// building any circuit: either a suite benchmark name or a well-formed,
// well-sized "<base>@<n>" instance. Sweep grammars use it to reject bad
// app axes before any expansion work is spent.
func ValidateName(name string) error {
	_, _, _, err := resolve(name)
	return err
}

// Names lists the suite benchmark names in Table II order.
func Names() []string {
	var names []string
	for _, s := range Suite() {
		names = append(names, s.Name)
	}
	return names
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Supremacy builds a quantum-supremacy style random circuit on a
// rows×cols qubit grid with exactly gates2q two-qubit gates, following the
// layered structure of Google's benchmark [5]: the circuit cycles through
// four CZ layer patterns (horizontal-even, vertical-even, horizontal-odd,
// vertical-odd on the grid) interleaved with random single-qubit gates
// drawn from {√X, √Y, T}. Gates are nearest-neighbor on the grid — the
// Table II pattern — which linearizes to index distances 1 and cols. An
// 8×8 grid emits 112 gates per 4-layer cycle, so gates2q = 560 is exactly
// 20 layers. seed fixes the single-qubit gate choices.
func Supremacy(rows, cols, gates2q int, seed int64) (*circuit.Circuit, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("apps: Supremacy needs rows,cols >= 2, got %dx%d", rows, cols)
	}
	if gates2q < 0 {
		return nil, fmt.Errorf("apps: Supremacy needs >=0 gates, got %d", gates2q)
	}
	n := rows * cols
	at := func(r, c int) int { return r*cols + c }
	rng := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder(fmt.Sprintf("Supremacy%d", n), n)
	for q := 0; q < n; q++ {
		b.H(q)
	}
	placed := 0
	for layer := 0; placed < gates2q; layer++ {
		// Random single-qubit layer.
		for q := 0; q < n; q++ {
			switch rng.Intn(3) {
			case 0:
				b.RX(q, math.Pi/2)
			case 1:
				b.RY(q, math.Pi/2)
			default:
				b.T(q)
			}
		}
		switch layer % 4 {
		case 0, 2: // horizontal CZ layers, even then odd column parity
			start := (layer / 2) % 2
			for r := 0; r < rows; r++ {
				for c := start; c+1 < cols && placed < gates2q; c += 2 {
					b.CZ(at(r, c), at(r, c+1))
					placed++
				}
			}
		case 1, 3: // vertical CZ layers, even then odd row parity
			start := (layer / 2) % 2
			for c := 0; c < cols; c++ {
				for r := start; r+1 < rows && placed < gates2q; r += 2 {
					b.CZ(at(r, c), at(r+1, c))
					placed++
				}
			}
		}
	}
	b.MeasureAll()
	return b.Circuit()
}

// QAOA builds the hardware-efficient QAOA ansatz of [84] on n qubits with
// p entangling layers: each layer applies ZZ(γ) along the qubit line
// followed by RX(β) mixers, giving p·(n-1) nearest-neighbor two-qubit
// gates (20 layers on 64 qubits = 1260, matching Table II). seed fixes the
// (arbitrary) variational angles.
func QAOA(n, p int, seed int64) (*circuit.Circuit, error) {
	if n < 2 || p < 1 {
		return nil, fmt.Errorf("apps: QAOA needs n>=2, p>=1 (got n=%d p=%d)", n, p)
	}
	rng := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder(fmt.Sprintf("QAOA%d", n), n)
	for q := 0; q < n; q++ {
		b.H(q)
	}
	for layer := 0; layer < p; layer++ {
		gamma := rng.Float64() * math.Pi
		beta := rng.Float64() * math.Pi
		for q := 0; q+1 < n; q++ {
			b.ZZ(q, q+1, gamma)
		}
		for q := 0; q < n; q++ {
			b.RX(q, beta)
		}
	}
	b.MeasureAll()
	return b.Circuit()
}

// QFT builds the n-qubit quantum Fourier transform with each controlled
// phase expanded into its standard 2-CNOT decomposition, so the circuit
// carries n·(n-1) two-qubit gates — 64·63 = 4032 for n=64, exactly the
// Table II count. Gates appear at every index distance ("All distances").
func QFT(n int) (*circuit.Circuit, error) {
	if n < 1 {
		return nil, fmt.Errorf("apps: QFT needs >=1 qubit, got %d", n)
	}
	b := circuit.NewBuilder(fmt.Sprintf("QFT%d", n), n)
	for i := 0; i < n; i++ {
		b.H(i)
		for j := i + 1; j < n; j++ {
			theta := math.Pi / math.Pow(2, float64(j-i))
			// cp(theta) a,b = rz(theta/2) a; cx a,b; rz(-theta/2) b;
			// cx a,b; rz(theta/2) b.
			b.RZ(j, theta/2)
			b.CNOT(j, i)
			b.RZ(i, -theta/2)
			b.CNOT(j, i)
			b.RZ(i, theta/2)
		}
	}
	b.MeasureAll()
	return b.Circuit()
}

// Adder builds the Cuccaro ripple-carry adder on two nBits-wide registers
// plus carry-in and carry-out: 2·nBits+2 qubits (64 for nBits=31). The a/b
// register qubits are interleaved so every MAJ/UMA block touches qubits at
// index distance <= 3, the short-range pattern Table II reports. Toffolis
// are emitted in their 6-CNOT decomposition as in the paper's IR.
func Adder(nBits int) (*circuit.Circuit, error) {
	if nBits < 1 {
		return nil, fmt.Errorf("apps: Adder needs >=1 bit, got %d", nBits)
	}
	n := 2*nBits + 2
	b := circuit.NewBuilder(fmt.Sprintf("Adder%d", n), n)
	cin := 0
	a := func(i int) int { return 1 + 2*i }
	bq := func(i int) int { return 2 + 2*i }
	cout := 2*nBits + 1

	// Load operands: |a> = all ones, |b> = alternating (arbitrary
	// classical inputs; they only add single-qubit X gates).
	for i := 0; i < nBits; i++ {
		b.X(a(i))
		if i%2 == 0 {
			b.X(bq(i))
		}
	}

	maj := func(c, y, x int) {
		b.CNOT(x, y)
		b.CNOT(x, c)
		b.Toffoli(c, y, x)
	}
	// UMA (3-CNOT variant): restores carry and writes the sum bit.
	uma := func(c, y, x int) {
		b.Toffoli(c, y, x)
		b.CNOT(x, c)
		b.CNOT(c, y)
	}

	maj(cin, bq(0), a(0))
	for i := 1; i < nBits; i++ {
		maj(a(i-1), bq(i), a(i))
	}
	b.CNOT(a(nBits-1), cout)
	for i := nBits - 1; i >= 1; i-- {
		uma(a(i-1), bq(i), a(i))
	}
	uma(cin, bq(0), a(0))

	b.MeasureAll()
	return b.Circuit()
}

// BV builds the Bernstein-Vazirani circuit on nData data qubits plus one
// ancilla, with the all-ones secret string: nData CNOTs fanning in to the
// ancilla (64 two-qubit gates for nData=64, matching Table II; the paper
// reports the qubit count without the ancilla). The fan-in mixes adjacent
// and cross-register distances — "short and long-range".
func BV(nData int) (*circuit.Circuit, error) {
	if nData < 1 {
		return nil, fmt.Errorf("apps: BV needs >=1 data qubit, got %d", nData)
	}
	n := nData + 1
	anc := nData
	b := circuit.NewBuilder(fmt.Sprintf("BV%d", nData), n)
	for q := 0; q < nData; q++ {
		b.H(q)
	}
	b.X(anc)
	b.H(anc)
	for q := 0; q < nData; q++ {
		b.CNOT(q, anc)
	}
	for q := 0; q < nData; q++ {
		b.H(q)
	}
	b.MeasureAll()
	return b.Circuit()
}

// SquareRoot builds a Grover-search kernel in the style of the ScaffCC
// SquareRoot benchmark: m search qubits, m-1 ladder ancillas and one
// oracle output qubit (2m qubits total; m=39 gives the paper's 78). The
// oracle and diffusion operators each realize an m-controlled phase via a
// Toffoli ladder, producing the short-range ancilla chain plus long-range
// search-to-ancilla interactions that Table II labels "short and
// long-range". The two-qubit count for m=39 is 920, within 11% of the
// paper's 1028 (the ScaffCC original also computes the squaring function
// the oracle compares against; see DESIGN.md §3).
func SquareRoot(m int) (*circuit.Circuit, error) {
	if m < 3 {
		return nil, fmt.Errorf("apps: SquareRoot needs >=3 search qubits, got %d", m)
	}
	n := 2 * m
	// Interleave ladder ancillas with search qubits so each Toffoli in the
	// ladder is short-range, while the diffusion's closing CZ back to
	// search qubit 0 is long-range.
	s := func(i int) int {
		if i < 2 {
			return i
		}
		return 2*i - 1
	}
	anc := func(j int) int {
		if j == 0 {
			return 2
		}
		return 2*j + 2
	}
	out := 2*m - 1 // oracle output qubit
	b := circuit.NewBuilder(fmt.Sprintf("SquareRoot%d", n), n)

	for i := 0; i < m; i++ {
		b.H(s(i))
	}
	b.X(out)
	b.H(out)

	// ladder computes AND of all search qubits into anc(m-2), applies
	// body, then uncomputes.
	ladder := func(body func()) {
		b.Toffoli(s(0), s(1), anc(0))
		for i := 2; i < m; i++ {
			b.Toffoli(s(i), anc(i-2), anc(i-1))
		}
		body()
		for i := m - 1; i >= 2; i-- {
			b.Toffoli(s(i), anc(i-2), anc(i-1))
		}
		b.Toffoli(s(0), s(1), anc(0))
	}

	// Oracle: flip the output qubit when the marked state (all ones after
	// X-conjugation of the even bits) is present.
	for i := 0; i < m; i += 2 {
		b.X(s(i))
	}
	ladder(func() { b.CNOT(anc(m-2), out) })
	for i := 0; i < m; i += 2 {
		b.X(s(i))
	}

	// Diffusion: inversion about the mean = H X (m-controlled Z) X H.
	for i := 0; i < m; i++ {
		b.H(s(i))
		b.X(s(i))
	}
	ladder(func() { b.CZ(anc(m-2), s(0)) })
	for i := 0; i < m; i++ {
		b.X(s(i))
		b.H(s(i))
	}

	b.MeasureAll()
	return b.Circuit()
}
