package isa

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/device"
)

// withOperands returns o with the given operands and dependencies.
func withOperands(o Op, qubits []int32, deps ...int32) Op {
	o.SetQubits(qubits...)
	o.SetDeps(deps...)
	return o
}

func validProgram() *Program {
	return &Program{
		Name:          "t",
		NumQubits:     3,
		DeviceName:    "L2",
		InitialLayout: [][]int{{0, 1}, {2}},
		Ops: []Op{
			withOperands(Op{Kind: OpGate1, Resource: 0, Gate: circuit.GateH, GateIndex: 0}, []int32{0}),
			withOperands(Op{Kind: OpSplit, Resource: 0, End: device.Right, GateIndex: -1}, []int32{0}, 0),
			withOperands(Op{Kind: OpMove, Resource: 0, GateIndex: -1}, []int32{0}, 1),
			withOperands(Op{Kind: OpMerge, Resource: 1, End: device.Left, GateIndex: -1}, []int32{0}, 2),
			withOperands(Op{Kind: OpGate2, Resource: 1, Gate: circuit.GateCNOT, GateIndex: 1}, []int32{0, 2}, 3),
		},
	}
}

func TestValidateHappyPath(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	corrupt := []func(*Program){
		func(p *Program) { p.Ops[2].Resource = -1 },                 // move without segment
		func(p *Program) { p.Ops[0].Resource = -1 },                 // gate without trap
		func(p *Program) { p.Ops[4].SetDeps(9) },                    // forward dep
		func(p *Program) { p.Ops[4].SetDeps(-1) },                   // negative dep
		func(p *Program) { p.Ops[4].SetQubits(0) },                  // operand count disagrees with kind
		func(p *Program) { p.Ops[0].SetQubits(5) },                  // qubit range
		func(p *Program) { p.InitialLayout = [][]int{{0, 0}, {2}} }, // dup layout
		func(p *Program) { p.InitialLayout = [][]int{{0}, {2}} },    // missing qubit
		func(p *Program) { p.InitialLayout[0][0] = 9 },              // layout range
	}
	for i, mutate := range corrupt {
		p := validProgram()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("corruption %d not caught", i)
		}
	}
}

// setResource makes o name resource r: its trap, segment or junction, as
// its kind uses.
func setResource(o *Op, r int32) { o.Resource = r }

// TestValidateResourceTexts pins the exact error Validate gives an op
// without the resource its kind needs.
func TestValidateResourceTexts(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"move without segment", func(p *Program) { setResource(&p.Ops[2], -1) },
			"isa: op 2 move without segment"},
		{"junction-cross without junction", func(p *Program) {
			p.Ops[2].Kind = OpJunctionCross
			setResource(&p.Ops[2], -1)
		}, "isa: op 2 junction-cross without junction"},
		{"gate without trap", func(p *Program) { setResource(&p.Ops[4], -1) },
			"isa: op 4 (gate2) without trap"},
	} {
		p := validProgram()
		c.mutate(p)
		if err := p.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.name, err, c.want)
		}
	}
}

func TestCategories(t *testing.T) {
	if OpGate2.Category() != CatCompute || OpMeasure.Category() != CatCompute {
		t.Error("gates should be compute")
	}
	for _, k := range []OpKind{OpSplit, OpMove, OpJunctionCross, OpMerge, OpSwapGS, OpIonSwap} {
		if k.Category() != CatComm {
			t.Errorf("%s should be comm", k)
		}
	}
	if CatCompute.String() != "compute" || CatComm.String() != "comm" {
		t.Error("category names")
	}
}

func TestCounts(t *testing.T) {
	p := validProgram()
	if p.CountKind(OpGate1) != 1 || p.CountKind(OpMove) != 1 {
		t.Error("CountKind")
	}
	if got := len(p.Ops) - p.CountKind(OpGate1) - p.CountKind(OpGate2) - p.CountKind(OpMeasure); got != 3 {
		t.Errorf("comm ops = %d, want 3", got)
	}
}

func TestOpStrings(t *testing.T) {
	p := validProgram()
	cases := map[int]string{
		0: "0: gate1 h q0 @T0",
		1: "1: split q0 @T0.right <- [0]",
		2: "2: move q0 @s0 <- [1]",
		4: "4: gate2 cx q0,q2 @T1 <- [3]",
	}
	for i, want := range cases {
		if got := fmt.Sprintf("%d: %s", i, &p.Ops[i]); got != want {
			t.Errorf("op %d String = %q, want %q", i, got, want)
		}
	}
}

// TestResourceAccessors checks that each kind's resource reads through
// the accessor for its kind alone, and the others read -1.
func TestResourceAccessors(t *testing.T) {
	for k := OpGate1; k <= OpLinkTransit+1; k++ {
		op := Op{Kind: k, Resource: 5}
		want := [3]int32{5, -1, -1} // trap, segment, junction
		switch k {
		case OpMove, OpLinkTransit:
			want = [3]int32{-1, 5, -1}
		case OpJunctionCross:
			want = [3]int32{-1, -1, 5}
		}
		if got := [3]int32{op.Trap(), op.Segment(), op.Junction()}; got != want {
			t.Errorf("%s: trap, segment, junction = %v, want %v", k, got, want)
		}
	}
}

func TestProgramString(t *testing.T) {
	s := validProgram().String()
	for _, want := range []string{"program t on L2", "T0: [0 1]", "\n  4: gate2 cx q0,q2 @T1 <- [3]\n"} {
		if !strings.Contains(s, want) {
			t.Errorf("program string missing %q:\n%s", want, s)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpJunctionCross.String() != "junction" || OpIonSwap.String() != "ionswap" {
		t.Error("op kind names")
	}
	if OpKind(99).String() != "op(99)" {
		t.Error("out-of-range op kind")
	}
}

// TestRecordSizes pins the two records a compile streams, so widening
// either is a decision: every compile, Prepare and run moves them, and
// the largest programs hold millions of each.
func TestRecordSizes(t *testing.T) {
	if size := unsafe.Sizeof(Op{}); size != 32 {
		t.Errorf("isa.Op is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof(circuit.Gate{}); size != 24 {
		t.Errorf("circuit.Gate is %d bytes, want 24", size)
	}
}

// TestOpIsFlat keeps Op a record with no pointers: a pointer-bearing
// field would make the garbage collector scan every op of every program.
func TestOpIsFlat(t *testing.T) {
	typ := reflect.TypeOf(Op{})
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("isa.Op%s is a %s", path, typ.Kind())
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		}
	}
	check("", typ)
}

func TestOperandBounds(t *testing.T) {
	var op Op
	op.SetQubits(1, 2)
	op.SetDeps(3, 4, 5)
	if got := op.Qubits(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Qubits = %v", got)
	}
	if got := op.Deps(); len(got) != 3 || got[2] != 5 {
		t.Errorf("Deps = %v", got)
	}
	op.SetDeps()
	if len(op.Deps()) != 0 || len(op.Qubits()) != 2 {
		t.Errorf("after clearing deps: Qubits = %v, Deps = %v", op.Qubits(), op.Deps())
	}
	op.SetDeps(6, 7)
	op.SetQubits(8)
	if got := op.Deps(); len(got) != 2 || got[1] != 7 || len(op.Qubits()) != 1 {
		t.Errorf("after one operand: Qubits = %v, Deps = %v", op.Qubits(), op.Deps())
	}
	for name, set := range map[string]func(){
		"qubits": func() { op.SetQubits(0, 1, 2) },
		"deps":   func() { op.SetDeps(0, 1, 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("too many %s did not panic", name)
				}
			}()
			set()
		}()
	}
}
