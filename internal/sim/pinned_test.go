package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

// compileApp compiles the named app onto spec at the given capacity with
// the default options.
func compileApp(t *testing.T, app, spec string, capacity int) (*isa.Program, *device.Device) {
	t.Helper()
	c, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.Parse(spec, capacity)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(c, d, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

// TestTraceCSVPinned pins RunTraced's CSV for one program per topology
// family, by SHA-256. Its resource column names the trap, segment or
// junction each op held, so a change to how an op records its resource
// moves a digest even where the Result does not.
func TestTraceCSVPinned(t *testing.T) {
	for _, c := range []struct {
		app, spec string
		capacity  int
		want      string
	}{
		{"BV", "L6", 20, "0d8d33ab3d476b28bc8472985cdd56d16df0b97cb54fe0e3a6c91a5c812b594d"},
		{"BV", "G2x3", 14, "693f5da39f85561afafbcd20b1a00fc47c87bc50e52ac24a14fdf0daf1a7c12b"},
		{"BV", "R6", 14, "8611cca5da1f405ed42ee7784aace7ee9e44a9c91ebdba28763e931a3fc3a98f"},
		{"BV", "M2x3", 14, "1bf2b02bbbff3d84ed0a5ea6f67bbb29cba6010f1debc9757fe0432a5aa8a658"},
		{"BV@160", "Mod2:G2x3", 22, "102b09034ea538ce2c3360aca03742928935984e6c032ecb8a53f708b19e9792"},
	} {
		p, d := compileApp(t, c.app, c.spec, c.capacity)
		_, trace, err := RunTraced(p, d, models.Default())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s on %s: trace CSV digest = %s, want %s", c.app, c.spec, got, c.want)
		}
	}
}

// TestErrorTextsPinned pins the exact text of the simulator's errors that
// print an op or name its resource: Prepare's rejection of a trap,
// segment or junction the device lacks, and a run whose op the chains
// reject after earlier ops have run.
func TestErrorTextsPinned(t *testing.T) {
	p, d := compileApp(t, "BV", "G2x3", 14)
	// firstOf returns the index of the first op of kind k.
	firstOf := func(k isa.OpKind) int {
		i := slices.IndexFunc(p.Ops, func(op isa.Op) bool { return op.Kind == k })
		if i < 0 {
			t.Fatalf("program has no %s op", k)
		}
		return i
	}
	// corrupt returns p with op i changed by mutate.
	corrupt := func(i int, mutate func(*isa.Op)) *isa.Program {
		bad := *p
		bad.Ops = slices.Clone(p.Ops)
		mutate(&bad.Ops[i])
		return &bad
	}
	for _, c := range []struct {
		kind isa.OpKind
		res  int32
		want string
	}{
		{isa.OpGate2, 9, "sim: op 80 (gate2) names trap 9, device G2x3 has 6"},
		{isa.OpMove, 99, "sim: op 68 (move) names segment 99, device G2x3 has 10"},
		{isa.OpJunctionCross, 7, "sim: op 69 (junction) names junction 7, device G2x3 has 4"},
	} {
		bad := corrupt(firstOf(c.kind), func(op *isa.Op) { setResource(op, c.res) })
		if _, err := Prepare(bad, d); err == nil || err.Error() != c.want {
			t.Errorf("Prepare with %s %d: error %v, want %s", c.kind, c.res, err, c.want)
		}
	}
	// The first split takes q0 from T0's right end; naming q1, which sits
	// inside that chain, makes the chains reject it after 67 ops have run.
	split := firstOf(isa.OpSplit)
	other := int32(p.InitialLayout[0][1])
	bad := corrupt(split, func(op *isa.Op) { op.SetQubits(other) })
	const want = "sim: op 67: split q1 @T0.right <- [66] at t=477.9µs: split qubit q1 not at right end of trap 0"
	if _, err := Run(bad, d, models.Default()); err == nil || err.Error() != want {
		t.Errorf("Run with a misplaced split: error %v, want %s", err, want)
	}
}
