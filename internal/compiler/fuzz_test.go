package compiler

import (
	"strings"
	"testing"

	"repro/internal/models"
)

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
