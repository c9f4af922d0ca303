package models

import (
	"strings"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	for _, spelling := range []string{"", "baseline", "BASELINE", "Baseline"} {
		pol, err := ParsePolicy(spelling)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spelling, err)
		}
		if pol != "" {
			t.Errorf("ParsePolicy(%q) = %q, want canonical zero value", spelling, pol)
		}
		if !pol.IsBaseline() {
			t.Errorf("ParsePolicy(%q).IsBaseline() = false", spelling)
		}
		if pol.String() != PolicyBaseline {
			t.Errorf("ParsePolicy(%q).String() = %q", spelling, pol.String())
		}
	}
	for spelling, want := range map[string]PolicyName{
		"congestion": PolicyCongestion, "CONGESTION": PolicyCongestion,
		"lookahead": PolicyLookahead, "LookAhead": PolicyLookahead,
	} {
		pol, err := ParsePolicy(spelling)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spelling, err)
		}
		if pol != want || pol.IsBaseline() {
			t.Errorf("ParsePolicy(%q) = %q, want %q", spelling, pol, want)
		}
		// String is canonical for the raw spelling too, not only for the
		// parsed value.
		if got := PolicyName(spelling).String(); got != string(want) {
			t.Errorf("PolicyName(%q).String() = %q, want %q", spelling, got, want)
		}
	}
	for _, bad := range []string{"nope", " baseline", "baseline ", "base\nline", "@", "look-ahead"} {
		_, err := ParsePolicy(bad)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
			continue
		}
		if want := "(want baseline|congestion|lookahead)"; !strings.Contains(err.Error(), "unknown compiler policy") ||
			!strings.HasSuffix(err.Error(), want) {
			t.Errorf("ParsePolicy(%q) error = %v, want unknown-policy message ending %s", bad, err, want)
		}
	}
}

// TestPolicies pins the policy table: its names in order, each with a
// description, each parsing to itself. The set no longer depends on which
// packages a binary links.
func TestPolicies(t *testing.T) {
	infos := Policies()
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
		if info.Description == "" {
			t.Errorf("policy %q has no description", info.Name)
		}
		pol, err := ParsePolicy(info.Name)
		if err != nil || pol.String() != info.Name {
			t.Errorf("ParsePolicy(%q) = %q, %v", info.Name, pol, err)
		}
	}
	if got := strings.Join(names, "|"); got != "baseline|congestion|lookahead" {
		t.Errorf("Policies() = %s, want baseline|congestion|lookahead", got)
	}
	// The listing is a copy: editing it must not change the table.
	infos[0].Name = "edited"
	if Policies()[0].Name != PolicyBaseline {
		t.Error("Policies() shares the table with its caller")
	}
}
