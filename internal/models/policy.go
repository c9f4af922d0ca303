package models

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// PolicyName identifies a registered compiler policy bundle (gate ordering
// + placement + routing, see internal/compiler). The zero value is the
// canonical in-memory spelling of the baseline policy — the paper's
// hardwired heuristics — so design points, cache keys and golden results
// that predate the policy axis are unchanged by its existence. Display
// surfaces render the zero value as "baseline" via String.
type PolicyName string

// PolicyBaseline is the display name of the default policy. Its canonical
// in-memory value is the zero PolicyName; ParsePolicy normalizes either
// spelling to "".
const PolicyBaseline = "baseline"

// IsBaseline reports whether n names the baseline policy (the zero value
// or any capitalization of "baseline").
func (n PolicyName) IsBaseline() bool {
	return n == "" || strings.EqualFold(string(n), PolicyBaseline)
}

// String renders the display name: "baseline" for the zero value.
func (n PolicyName) String() string {
	if n == "" {
		return PolicyBaseline
	}
	return string(n)
}

// MarshalText encodes the display name, as String renders it.
func (n PolicyName) MarshalText() ([]byte, error) { return []byte(n.String()), nil }

// UnmarshalText resolves a spelling as ParsePolicy does. Empty text
// leaves n unchanged, so a decoder's preset value is the default.
func (n *PolicyName) UnmarshalText(text []byte) error { return unmarshalEnum(n, text, ParsePolicy) }

// PolicyInfo describes one registered policy for discovery surfaces
// (GET /v1/policies, qccdsim -policy usage, README tables).
type PolicyInfo struct {
	// Name is the lowercase display name ("baseline", "lookahead", ...).
	Name string `json:"name"`
	// Description is a one-line summary of what the policy changes.
	Description string `json:"description"`
}

// policyRegistry holds the registered policy names. Registration happens
// from package init functions (internal/compiler registers its bundles);
// after init the registry is read-only, so lookups take the lock only to
// be safe under `go test -race` init orderings.
var policyRegistry = struct {
	sync.RWMutex
	infos []PolicyInfo
	byKey map[string]bool
}{byKey: make(map[string]bool)}

// RegisterPolicy records a policy name and its one-line description so
// ParsePolicy accepts it and discovery endpoints can advertise it. Names
// must be lowercase [a-z][a-z0-9-]* and unique; violations panic, since
// registration is an init-time programming act, not an input.
func RegisterPolicy(name, description string) {
	if err := checkPolicyName(name); err != nil {
		panic(fmt.Sprintf("models: RegisterPolicy(%q): %v", name, err))
	}
	policyRegistry.Lock()
	defer policyRegistry.Unlock()
	if policyRegistry.byKey[name] {
		panic(fmt.Sprintf("models: RegisterPolicy(%q): already registered", name))
	}
	policyRegistry.byKey[name] = true
	policyRegistry.infos = append(policyRegistry.infos, PolicyInfo{Name: name, Description: description})
}

// checkPolicyName enforces the registration grammar: lowercase ASCII
// letters, digits and dashes, starting with a letter.
func checkPolicyName(name string) error {
	if name == "" {
		return fmt.Errorf("empty name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z':
		case i > 0 && ('0' <= c && c <= '9' || c == '-'):
		default:
			return fmt.Errorf("name must match [a-z][a-z0-9-]*")
		}
	}
	return nil
}

func init() {
	// The baseline is registered here rather than in internal/compiler so
	// ParsePolicy is self-consistent even in packages that never link the
	// compiler; the compiler's init registers the alternatives.
	RegisterPolicy(PolicyBaseline,
		"the paper's heuristics: earliest-ready gate order, first-use-order placement, distance+occupancy routing with Belady eviction")
}

// Policies lists every registered policy, baseline first and the rest in
// sorted name order, so discovery output is stable regardless of package
// init order.
func Policies() []PolicyInfo {
	policyRegistry.RLock()
	defer policyRegistry.RUnlock()
	out := make([]PolicyInfo, len(policyRegistry.infos))
	copy(out, policyRegistry.infos)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name == PolicyBaseline != (out[j].Name == PolicyBaseline) {
			return out[i].Name == PolicyBaseline
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// PolicyRegistered reports whether name (case-insensitively) resolves to a
// registered policy.
func PolicyRegistered(name PolicyName) bool {
	_, err := ParsePolicy(string(name))
	return err == nil
}

// ParsePolicy resolves a policy spelling (case-insensitive) to its
// canonical PolicyName: the zero value for "" or "baseline", the lowercase
// registered name otherwise. Unknown names are an error listing what is
// registered, so a typo'd sweep axis fails loudly at validation time.
func ParsePolicy(s string) (PolicyName, error) {
	key := strings.ToLower(s)
	if key == "" || key == PolicyBaseline {
		return "", nil
	}
	policyRegistry.RLock()
	ok := policyRegistry.byKey[key]
	policyRegistry.RUnlock()
	if !ok {
		names := make([]string, 0, 4)
		for _, info := range Policies() {
			names = append(names, info.Name)
		}
		return "", fmt.Errorf("models: unknown compiler policy %q (want %s)", s, strings.Join(names, "|"))
	}
	return PolicyName(key), nil
}
