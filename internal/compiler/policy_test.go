package compiler

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/isa"
	"repro/internal/models"
)

// TestCompilePolicySpellings checks that Compile resolves a policy as
// models.ParsePolicy does: any spelling compiles the program of its
// canonical policy, and an unknown name is the unknown-policy error.
func TestCompilePolicySpellings(t *testing.T) {
	c, err := apps.ByName("QFT")
	if err != nil {
		t.Fatal(err)
	}
	d := linear(6, 14, t)
	compile := func(pol models.PolicyName) (*isa.Program, error) {
		opts := DefaultOptions()
		opts.Policy = pol
		return Compile(c, d, opts)
	}
	for spelling, canonical := range map[models.PolicyName]models.PolicyName{
		"":           "",
		"baseline":   "",
		"BASELINE":   "",
		"lookahead":  models.PolicyLookahead,
		"LookAhead":  models.PolicyLookahead,
		"CONGESTION": models.PolicyCongestion,
	} {
		got, err := compile(spelling)
		if err != nil {
			t.Fatalf("Compile(policy %q): %v", spelling, err)
		}
		want, err := compile(canonical)
		if err != nil {
			t.Fatalf("Compile(policy %q): %v", canonical, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Compile(policy %q) differs from policy %q", spelling, canonical)
		}
	}
	const want = `compiler: models: unknown compiler policy "nope" (want baseline|congestion|lookahead)`
	if _, err := compile("nope"); err == nil || err.Error() != want {
		t.Errorf("Compile(policy nope) error = %v, want %s", err, want)
	}
}
