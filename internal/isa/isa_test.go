package isa

import (
	"reflect"
	"strings"
	"testing"

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
			withOperands(Op{ID: 0, Kind: OpGate1, Trap: 0, Gate: circuit.GateH, Segment: -1, Junction: -1, GateIndex: 0}, []int32{0}),
			withOperands(Op{ID: 1, Kind: OpSplit, Trap: 0, End: device.Right, Segment: -1, Junction: -1, GateIndex: -1}, []int32{0}, 0),
			withOperands(Op{ID: 2, Kind: OpMove, Trap: -1, Segment: 0, Junction: -1, GateIndex: -1}, []int32{0}, 1),
			withOperands(Op{ID: 3, Kind: OpMerge, Trap: 1, End: device.Left, Segment: -1, Junction: -1, GateIndex: -1}, []int32{0}, 2),
			withOperands(Op{ID: 4, Kind: OpGate2, Trap: 1, Gate: circuit.GateCNOT, Segment: -1, Junction: -1, GateIndex: 1}, []int32{0, 2}, 3),
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
		func(p *Program) { p.Ops[2].Segment = -1 },                  // move without segment
		func(p *Program) { p.Ops[0].Trap = -1 },                     // gate without trap
		func(p *Program) { p.Ops[4].SetDeps(9) },                    // forward dep
		func(p *Program) { p.Ops[4].SetDeps(-1) },                   // negative dep
		func(p *Program) { p.Ops[4].SetQubits(0) },                  // operand count disagrees with kind
		func(p *Program) { p.Ops[0].SetQubits(5) },                  // qubit range
		func(p *Program) { p.Ops[1].ID = 7 },                        // ID mismatch
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
	if got := p.CommOps(); got != 3 {
		t.Errorf("CommOps = %d, want 3", got)
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
	for id, want := range cases {
		if got := p.Ops[id].String(); got != want {
			t.Errorf("op %d String = %q, want %q", id, got, want)
		}
	}
}

func TestProgramString(t *testing.T) {
	s := validProgram().String()
	for _, want := range []string{"program t on L2", "T0: [0 1]", "gate2 cx"} {
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

// TestOpIsFlat keeps Op a small record with no pointers: a pointer-bearing
// field would make the garbage collector scan every op of every program,
// and a wider record would add memory traffic to every compile and run.
func TestOpIsFlat(t *testing.T) {
	typ := reflect.TypeOf(Op{})
	if size := typ.Size(); size > 64 {
		t.Errorf("isa.Op is %d bytes, want at most 64", size)
	}
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
	if len(op.Deps()) != 0 {
		t.Errorf("Deps after reset = %v", op.Deps())
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
