package compiler

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
	"repro/internal/qasm"
)

// rescanOrder is the lookahead order as first written, kept as the
// reference lookaheadOrder must match pick for pick: over circuit.BuildDAG,
// it rescores every ready gate, from the use lists, at every pick.
type rescanOrder struct {
	cc    *compilation
	dag   *circuit.DAG
	indeg []int
	ready []int
}

func newRescanOrder(cc *compilation) schedule {
	dag := circuit.BuildDAG(cc.circ)
	s := &rescanOrder{cc: cc, dag: dag, indeg: make([]int, dag.Len())}
	copy(s.indeg, dag.InDegree)
	for i, deg := range s.indeg {
		if deg == 0 {
			s.ready = append(s.ready, i)
		}
	}
	return s
}

func (s *rescanOrder) Next() int {
	if len(s.ready) == 0 {
		return -1
	}
	best, bestScore := -1, 0.0
	for _, gi := range s.ready {
		score := s.score(gi)
		if best < 0 || score < bestScore || (score == bestScore && gi < best) {
			best, bestScore = gi, score
		}
	}
	for i, gi := range s.ready {
		if gi == best {
			s.ready[i] = s.ready[len(s.ready)-1]
			s.ready = s.ready[:len(s.ready)-1]
			break
		}
	}
	for _, v := range s.dag.Succs[best] {
		s.indeg[v]--
		if s.indeg[v] == 0 {
			s.ready = append(s.ready, v)
		}
	}
	return best
}

func (s *rescanOrder) score(gi int) float64 {
	g := s.cc.circ.Gates[gi]
	if !g.Kind.IsTwoQubit() {
		return 0
	}
	a, b := g.Qubit(0), g.Qubit(1)
	ta, tb := s.cc.chains.Trap(a), s.cc.chains.Trap(b)
	score := 0.0
	if ta != tb {
		d, err := s.cc.router.Distance(ta, tb)
		if err != nil {
			return 1e18
		}
		score = d
	}
	score -= lookaheadAffinity * float64(s.affinity(a, gi, ta, tb)+s.affinity(b, gi, ta, tb))
	return score
}

func (s *rescanOrder) affinity(q, gi, ta, tb int) int {
	cc := s.cc
	count, seen := 0, 0
	for _, use := range cc.an.usesOf(q)[cc.useCounts[q]:] {
		if int(use) == gi {
			continue
		}
		if seen++; seen > lookaheadDepth {
			break
		}
		g := cc.circ.Gates[use]
		if !g.Kind.IsTwoQubit() {
			continue
		}
		partner := g.Qubit(0)
		if partner == q {
			partner = g.Qubit(1)
		}
		if tp := cc.chains.Trap(partner); tp >= 0 && (tp == ta || tp == tb) {
			count++
		}
	}
	return count
}

// diffRescan compiles a's circuit on d under opts with rescanOrder as the
// lookahead order, and returns an error naming the first op where got,
// as Program.String prints it, differs from that program.
func diffRescan(got *isa.Program, a *Analysis, d *device.Device, opts Options) error {
	want, err := compileWith(nil, a, d, opts, newRescanOrder)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if got.String() == want.String() {
		return nil
	}
	n := min(len(got.Ops), len(want.Ops))
	i := 0
	for i < n && got.Ops[i] == want.Ops[i] {
		i++
	}
	return fmt.Errorf("%d ops, rescanning reference %d; first difference at op %d", len(got.Ops), len(want.Ops), i)
}

// TestLookaheadMatchesRescan requires the incremental lookahead order to
// compile, byte for byte, the programs of the order that rescores every
// ready gate at every pick. The inputs have wide ready sets (QFT@128
// keeps about 127 gates ready on L8), many ready two-qubit gates (QAOA,
// SquareRoot, Surface) and barriers, on every topology family at two
// capacities under both reorder methods.
func TestLookaheadMatchesRescan(t *testing.T) {
	src, err := os.ReadFile("../../testdata/barrier.qasm")
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := qasm.Parse("barrier", string(src))
	if err != nil {
		t.Fatal(err)
	}
	circs := []*circuit.Circuit{barrier}
	for _, app := range []string{"QFT@128", "QAOA@128", "SquareRoot@128", "Surface@7"} {
		c, err := apps.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		circs = append(circs, c)
	}
	for _, spec := range []string{"L8", "G2x4", "M2x4", "R8", "Mod2:G2x2"} {
		for _, capacity := range []int{22, 30} {
			d, err := device.Parse(spec, capacity)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/%d", spec, capacity), func(t *testing.T) {
				t.Parallel()
				for _, c := range circs {
					a := Analyze(c)
					for _, reorder := range models.ReorderMethods() {
						opts := Options{Reorder: reorder, Policy: models.PolicyLookahead}
						got, err := CompileInto(nil, a, d, opts)
						if err == nil {
							err = diffRescan(got, a, d, opts)
						}
						if err != nil {
							t.Errorf("%s (%s): %v", c.Name, reorder, err)
						}
					}
				}
			})
		}
	}
}

// TestAnalysisDAGMatchesBuildDAG holds the analysis's DAG to
// circuit.BuildDAG's successor lists and in-degrees on random circuits,
// barriers included, and on one with no gates.
func TestAnalysisDAGMatchesBuildDAG(t *testing.T) {
	circs := []*circuit.Circuit{circuit.New("empty", 3)}
	for _, seed := range []int64{1, 2, 3} {
		circs = append(circs, randomCircuit(rand.New(rand.NewSource(seed)), 9, 300))
	}
	for _, c := range circs {
		want := circuit.BuildDAG(c)
		got := Analyze(c).lookaheadDAG()
		if len(got.indeg) != want.Len() || len(got.succOff) != want.Len()+1 {
			t.Fatalf("%s: %d in-degrees and %d offsets for %d gates", c.Name, len(got.indeg), len(got.succOff), want.Len())
		}
		for i := range want.Len() {
			succs := got.succs[got.succOff[i]:got.succOff[i+1]]
			if int(got.indeg[i]) != want.InDegree[i] || len(succs) != len(want.Succs[i]) {
				t.Fatalf("%s: gate %d: in-degree %d, successors %v; want %d, %v",
					c.Name, i, got.indeg[i], succs, want.InDegree[i], want.Succs[i])
			}
			for j, v := range succs {
				if int(v) != want.Succs[i][j] {
					t.Fatalf("%s: gate %d: successors %v, want %v", c.Name, i, succs, want.Succs[i])
				}
			}
		}
	}
}

// TestAnalysisSharedAcrossCompiles compiles one analysis under the
// lookahead policy on four goroutines at once, as a sweep's workers do,
// so they share the DAG the first of them builds. Each program must
// equal a compile from the circuit alone. Run it under -race.
func TestAnalysisSharedAcrossCompiles(t *testing.T) {
	c, err := apps.ByName("QFT")
	if err != nil {
		t.Fatal(err)
	}
	var devs []*device.Device
	for _, spec := range []string{"L6", "G2x3", "M2x3", "R6"} {
		d, err := device.Parse(spec, 22)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
	}
	opts := Options{Policy: models.PolicyLookahead}
	a := Analyze(c)
	got := make([]*isa.Program, len(devs))
	errs := make([]error, len(devs))
	var wg sync.WaitGroup
	for i, d := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = CompileInto(nil, a, d, opts)
		}()
	}
	wg.Wait()
	for i, d := range devs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", d.Name, errs[i])
		}
		want, err := Compile(c, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].String() != want.String() {
			t.Errorf("%s: a shared analysis compiled %d ops, a fresh one %d", d.Name, len(got[i].Ops), len(want.Ops))
		}
	}
}
