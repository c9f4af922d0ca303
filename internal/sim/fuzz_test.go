package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

// decodeProgram reads a small hand-built program from data: a device
// selector, a qubit count (1-4), one trap byte per qubit, then four bytes
// per op — kind, operands (two 2-bit qubit fields), resource index and
// flags (bit 0: right chain end; bit 1: depends on the previous op). Kind
// and resource bytes range one kind and two indices past what the ISA and
// the device define, so unknown kinds and out-of-range resources occur.
func decodeProgram(data []byte, devs []*device.Device) (*isa.Program, *device.Device) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	d := devs[next()%len(devs)]
	nq := 1 + next()%4
	layout := make([][]int, d.NumTraps())
	for q := 0; q < nq; q++ {
		t := next() % d.NumTraps()
		layout[t] = append(layout[t], q)
	}
	p := &isa.Program{Name: "fuzz", NumQubits: nq, DeviceName: d.Name, InitialLayout: layout}
	for len(data) >= 4 && len(p.Ops) < 64 {
		kind, operands, res, flags := next(), next(), next(), next()
		op := isa.Op{
			ID: int32(len(p.Ops)), Kind: isa.OpKind(kind % int(isa.OpLinkTransit+2)),
			GateIndex: -1, Trap: -1, Segment: -1, Junction: -1, End: device.End(flags & 1),
		}
		a, b := int32(operands%nq), int32(operands/4%nq)
		switch op.Kind {
		case isa.OpGate2, isa.OpSwapGS, isa.OpIonSwap:
			op.SetQubits(a, b)
		default:
			op.SetQubits(a)
		}
		switch op.Kind {
		case isa.OpMove, isa.OpLinkTransit:
			op.Segment = int32(res % (len(d.Segments) + 2))
		case isa.OpJunctionCross:
			op.Junction = int32(res % (len(d.Junctions) + 2))
		default:
			op.Trap = int32(res % (d.NumTraps() + 2))
		}
		if flags&2 != 0 && op.ID > 0 {
			op.SetDeps(op.ID - 1)
		}
		p.Ops = append(p.Ops, op)
	}
	return p, d
}

// FuzzRunProgram runs decoded programs on a grid with junctions and on a
// two-module device joined by a photonic link. Run must never panic, and
// a program it accepts ran every op: each shuttling counter equals the
// program's count of that op kind. Two runs from one Prepared of an
// accepted program each give Run's result. So does a run on one Scratch
// that every input shares, whatever an earlier input — larger, rejected
// or deadlocked — left in it; on a rejected input it fails with Run's
// error.
func FuzzRunProgram(f *testing.F) {
	var devs []*device.Device
	for _, spec := range []string{"G2x2", "Mod2:L2"} {
		d, err := device.Parse(spec, 3)
		if err != nil {
			f.Fatal(err)
		}
		devs = append(devs, d)
	}
	// G2x2: q0 in T0 and q1 in T1; q0 shuttles T0 → J0 → T1 (segments 0
	// and 1), then both gate, swap, and are measured in T1.
	f.Add([]byte{0, 1, 0, 1,
		3, 0, 0, 1, 4, 0, 0, 2, 5, 0, 0, 2, 4, 0, 1, 2, 6, 0, 1, 2,
		1, 4, 1, 2, 8, 4, 1, 2, 7, 4, 1, 2, 0, 1, 1, 2, 2, 0, 1, 2})
	// Mod2:L2: q0 leaves module 0's exit trap T1 over the photonic
	// segment 2 and merges into module 1's entry trap T2.
	f.Add([]byte{1, 0, 1, 3, 0, 1, 1, 9, 0, 2, 2, 6, 0, 2, 2})
	// The same shuttle with no dependencies: ops race for resources.
	f.Add([]byte{1, 0, 1, 3, 0, 1, 1, 9, 0, 2, 0, 6, 0, 2, 0})
	params := models.Default()
	var shared Scratch
	runShared := func(p *isa.Program, d *device.Device) (*Result, error) {
		pr, err := Prepare(p, d)
		if err != nil {
			return nil, err
		}
		return shared.Run(pr, params)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, d := decodeProgram(data, devs)
		r, err := Run(p, d, params)
		reused, reusedErr := runShared(p, d)
		if fmt.Sprint(reusedErr) != fmt.Sprint(err) {
			t.Fatalf("run from the shared Scratch fails with %v, Run with %v\n%s", reusedErr, err, p)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(reused, r) {
			t.Fatalf("run from the shared Scratch differs from Run:\n%+v\n%+v\n%s", reused, r, p)
		}
		pr, err := Prepare(p, d)
		if err != nil {
			t.Fatalf("Run accepts the program, Prepare rejects it: %v\n%s", err, p)
		}
		for k := 0; k < 2; k++ {
			again, err := pr.Run(params)
			if err != nil {
				t.Fatalf("prepared run %d: %v\n%s", k, err, p)
			}
			if !reflect.DeepEqual(again, r) {
				t.Fatalf("prepared run %d differs from Run:\n%+v\n%+v\n%s", k, again, r, p)
			}
		}
		for _, c := range []struct {
			name string
			got  int
			kind isa.OpKind
		}{
			{"Splits", r.Splits, isa.OpSplit},
			{"Merges", r.Merges, isa.OpMerge},
			{"Moves", r.Moves, isa.OpMove},
			{"JunctionCrossings", r.JunctionCrossings, isa.OpJunctionCross},
			{"IonSwaps", r.IonSwaps, isa.OpIonSwap},
			{"LinkTransits", r.LinkTransits, isa.OpLinkTransit},
		} {
			if want := p.CountKind(c.kind); c.got != want {
				t.Fatalf("%s = %d, program has %d %s ops:\n%s", c.name, c.got, want, c.kind, p)
			}
		}
	})
}
