package compiler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

// TestPolicyProgramsPinned pins the compiled programs of every policy, not
// just their simulated results: per policy, one SHA-256 over the six paper
// apps × five topology families at capacity 22 × GS/IS (60 programs),
// covering each initial layout and every op field. A change to any policy
// decision — gate order, placement, move cost, victim or eviction
// destination — moves a digest even where the golden Results happen not to.
func TestPolicyProgramsPinned(t *testing.T) {
	want := map[string]string{
		"baseline":   "3517a102b932afda2bb9b9ee639a491048e0334c1938b62c716a816f48384fa0",
		"congestion": "dd971c6526766225f0bdd136b7035b6f8e4fbeb53ad2531fc329ed16ace9f17b",
		"lookahead":  "c80820aaadf14447de1ae418f43492bed41ce6b88c35f8ca54336adeed049ee6",
	}
	var circs []*circuit.Circuit
	for _, spec := range apps.Suite() {
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("build %s: %v", spec.Name, err)
		}
		circs = append(circs, c)
	}
	var devs []*device.Device
	for _, spec := range []string{"L6", "G2x3", "M2x3", "R6", "Mod2:G2x2"} {
		d, err := device.Parse(spec, 22)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
	}
	for _, name := range []string{"baseline", "congestion", "lookahead"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			for _, c := range circs {
				for _, d := range devs {
					for _, reorder := range []models.ReorderMethod{models.GS, models.IS} {
						opts := DefaultOptions()
						opts.Reorder = reorder
						opts.Policy = models.PolicyName(name)
						prog, err := Compile(c, d, opts)
						if err != nil {
							t.Fatalf("%s on %s (%s): %v", c.Name, d.Name, reorder, err)
						}
						hashProgram(h, prog)
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
				t.Errorf("programs digest = %s, want %s", got, want[name])
			}
		})
	}
}

// hashProgram writes p's initial layout and every op field into h in a
// fixed binary layout, each list preceded by its length.
func hashProgram(h hash.Hash, p *isa.Program) {
	le := binary.LittleEndian
	buf := le.AppendUint32(nil, uint32(p.NumQubits))
	buf = le.AppendUint32(buf, uint32(len(p.InitialLayout)))
	for _, chain := range p.InitialLayout {
		buf = le.AppendUint32(buf, uint32(len(chain)))
		for _, q := range chain {
			buf = le.AppendUint32(buf, uint32(q))
		}
	}
	buf = le.AppendUint32(buf, uint32(len(p.Ops)))
	h.Write(buf)
	for i := range p.Ops {
		op := &p.Ops[i]
		buf = buf[:0]
		for _, v := range []int32{op.ID, op.GateIndex, op.Trap, op.Segment, op.Junction} {
			buf = le.AppendUint32(buf, uint32(v))
		}
		buf = le.AppendUint64(buf, math.Float64bits(op.Param))
		buf = append(buf, byte(op.Kind), byte(op.End), byte(op.Gate))
		qs, deps := op.Qubits(), op.Deps()
		buf = append(buf, byte(len(qs)))
		for _, q := range qs {
			buf = le.AppendUint32(buf, uint32(q))
		}
		buf = append(buf, byte(len(deps)))
		for _, d := range deps {
			buf = le.AppendUint32(buf, uint32(d))
		}
		h.Write(buf)
	}
}
