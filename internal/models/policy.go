package models

import (
	"fmt"
	"strings"
)

// PolicyName identifies a compiler policy (gate ordering, placement and
// routing, see internal/compiler). The zero value is the canonical
// in-memory spelling of the baseline policy — the paper's hardwired
// heuristics — so design points, cache keys and golden results that
// predate the policy axis are unchanged by its existence. Display
// surfaces render the zero value as "baseline" via String.
type PolicyName string

// The policies' display names. The canonical in-memory value of the
// baseline is the zero PolicyName; ParsePolicy normalizes either spelling
// to "".
const (
	PolicyBaseline   = "baseline"
	PolicyCongestion = "congestion"
	PolicyLookahead  = "lookahead"
)

// IsBaseline reports whether n names the baseline policy (the zero value
// or any capitalization of "baseline").
func (n PolicyName) IsBaseline() bool {
	return n == "" || strings.EqualFold(string(n), PolicyBaseline)
}

// String renders the canonical display name: "baseline" for any spelling
// of the baseline, the lowercase name otherwise. Every spelling
// ParsePolicy accepts for one policy thus renders, encodes and hashes
// alike.
func (n PolicyName) String() string {
	if n.IsBaseline() {
		return PolicyBaseline
	}
	return strings.ToLower(string(n))
}

// MarshalText encodes the display name, as String renders it.
func (n PolicyName) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// UnmarshalText resolves a spelling as ParsePolicy does. Empty text
// leaves n unchanged, so a decoder's preset value is the default.
func (n *PolicyName) UnmarshalText(text []byte) error { return unmarshalEnum(n, text, ParsePolicy) }

// PolicyInfo describes one compiler policy for discovery surfaces
// (GET /v1/policies, qccdsim -policy usage, README tables).
type PolicyInfo struct {
	// Name is the lowercase display name ("baseline", "lookahead", ...).
	Name string `json:"name"`
	// Description is a one-line summary of what the policy changes.
	Description string `json:"description"`
}

// policies is the closed set of compiler policies, baseline first.
// internal/compiler implements each row.
var policies = []PolicyInfo{
	{PolicyBaseline, "the paper's heuristics: earliest-ready gate order, " +
		"first-use-order placement, distance+occupancy routing with Belady eviction"},
	{PolicyCongestion, "congestion-aware routing: the occupancy penalty also charges live " +
		"in-flight transits toward a trap, decaying as they age out"},
	{PolicyLookahead, "lookahead-4 gate order: among ready gates, prefer cheap-to-communicate " +
		"gates whose operands' upcoming partners are already co-located"},
}

// Policies lists the compiler policies, baseline first.
func Policies() []PolicyInfo { return append([]PolicyInfo(nil), policies...) }

// ParsePolicy resolves a policy spelling (case-insensitive) to its
// canonical PolicyName: the zero value for "" or "baseline", the lowercase
// name otherwise. Unknown names are an error listing every policy, so a
// typo'd sweep axis fails loudly at validation time.
func ParsePolicy(s string) (PolicyName, error) {
	key := strings.ToLower(s)
	if key == "" || key == PolicyBaseline {
		return "", nil
	}
	for _, info := range policies[1:] {
		if key == info.Name {
			return PolicyName(key), nil
		}
	}
	names := make([]string, len(policies))
	for i, info := range policies {
		names[i] = info.Name
	}
	return "", fmt.Errorf("models: unknown compiler policy %q (want %s)", s, strings.Join(names, "|"))
}
