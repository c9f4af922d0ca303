package compiler

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/difftest"
	"repro/internal/models"
	"repro/internal/sim"
)

// FuzzCompile compiles seeded random Clifford circuits, barriers
// included, on small devices of every topology family at capacities 2-8,
// under every policy and both reorder methods: the compiler's whole
// configuration. A circuit that fits the device must compile, replay
// through replayStructure and simulate, and under the lookahead policy
// compile the program the rescanning reference order does; one that does
// not fit must fail with the capacity error and nothing else.
func FuzzCompile(f *testing.F) {
	specs := []string{
		"L1", "L2", "L3", "L6", "G2x2", "G2x3", "G3x3", "R3", "R6",
		"M2x2", "M2x3", "Mod2:L2", "Mod2:G2x2", "Mod3:L1",
	}
	const minCap, maxCap = 2, 8
	// devs[s][c] is specs[s] at capacity minCap+c.
	devs := make([][]*device.Device, len(specs))
	for s, spec := range specs {
		for capacity := minCap; capacity <= maxCap; capacity++ {
			d, err := device.Parse(spec, capacity)
			if err != nil {
				f.Fatal(err)
			}
			devs[s] = append(devs[s], d)
		}
	}
	policies := models.Policies()
	for i := 0; i < len(specs); i++ {
		f.Add(int64(i), uint8(i), uint8(i), uint8(i), i%2 == 1)
	}
	params := models.Default()
	f.Fuzz(func(t *testing.T, seed int64, spec, capacity, policy uint8, is bool) {
		c := difftest.RandomClifford(seed, difftest.DefaultGenOptions())
		d := devs[int(spec)%len(specs)][int(capacity)%(maxCap-minCap+1)]
		opts := DefaultOptions()
		opts.Policy = models.PolicyName(policies[int(policy)%len(policies)].Name)
		if is {
			opts.Reorder = models.IS
		}
		where := fmt.Sprintf("seed %d (%d qubits, %d gates) on %s at capacity %d, %s, policy %q",
			seed, c.NumQubits, len(c.Gates), d.Name, d.Capacity, opts.Reorder, opts.Policy)
		p, err := Compile(c, d, opts)
		if c.NumQubits > d.MaxIons() {
			want := fmt.Sprintf("compiler: %d qubits exceed device capacity %d (%s)",
				c.NumQubits, d.MaxIons(), d.Name)
			if err == nil || err.Error() != want {
				t.Fatalf("%s: error %v, want %q", where, err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		replayStructure(t, p, d)
		if _, err := sim.Run(p, d, params); err != nil {
			t.Fatalf("%s: simulate: %v", where, err)
		}
		if opts.Policy == models.PolicyLookahead {
			if err := diffRescan(p, Analyze(c), d, opts); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	})
}

// FuzzPolicyParse drives policy-name parsing with arbitrary strings.
// Policy names arrive from every untrusted edge of the system — CLI
// flags, /v1/run point JSON, sweep-grammar "policies" axes — so
// ParsePolicy must never panic, and anything it accepts must be a
// canonical policy that survives a String() round trip and compiles.
func FuzzPolicyParse(f *testing.F) {
	seeds := []string{
		"", "baseline", "BASELINE", "Baseline", "lookahead", "congestion",
		"@", "policy@2", "base line", " baseline", "baseline\n",
		"naïve", "ポリシー", "\x00", strings.Repeat("a", 1024),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	c := pinned("fuzz", 4).CNOT(0, 3).CNOT(1, 2).MustCircuit()
	f.Fuzz(func(t *testing.T, name string) {
		opts := DefaultOptions()
		opts.Policy = models.PolicyName(name)
		_, cerr := Compile(c, linear(2, 3, t), opts)
		pol, err := models.ParsePolicy(name)
		if err != nil {
			// Rejected names must also fail to compile: the two entry
			// points may never disagree about validity.
			if cerr == nil {
				t.Fatalf("ParsePolicy(%q) rejected but Compile accepted", name)
			}
			return
		}
		if cerr != nil {
			t.Fatalf("ParsePolicy(%q) accepted but Compile failed: %v", name, cerr)
		}
		// Accepted names parse to a canonical value: round-tripping the
		// display form must be the identity, and the raw spelling must
		// already render as that form.
		rt, err := models.ParsePolicy(pol.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q) = %q, but reparse failed: %v", name, pol, err)
		}
		if rt != pol {
			t.Fatalf("ParsePolicy(%q) = %q, reparse = %q", name, pol, rt)
		}
		if got := models.PolicyName(name).String(); got != pol.String() {
			t.Fatalf("PolicyName(%q).String() = %q, want %q", name, got, pol.String())
		}
	})
}
