// Package sweep implements the server-side design-space sweep grammar: a
// compact cross-product description of design points (apps × topologies ×
// capacities × gates × reorder methods × compiler policies) that is
// validated up front and expanded lazily, one point at a time, in a
// stable total order.
//
// A Space is the wire-level grammar. Compiling it yields a Grid: the
// validated, normalized form that can report its exact size, materialize
// any single point by index without enumerating the rest, and mint/verify
// resume cursors. A TITAN-scale million-point search therefore costs the
// server O(1) memory per in-flight point, never O(grid).
//
// Expansion order is fixed and documented: apps vary slowest, then
// topologies, then capacities, then gates, then reorder methods, with
// compiler policies varying fastest — the same nesting as the paper's
// evaluation grid, with the policy axis innermost so adjacent points
// compare policies on an otherwise identical configuration. The order is
// part of the cursor contract: a cursor is (space identity, next index),
// so resuming can neither skip nor duplicate points.
package sweep

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
)

// Space is the sweep grammar as it travels on the wire. Each axis lists
// the values to cross; gates and reorders are optional and default to the
// paper's FM / GS microarchitecture.
type Space struct {
	// Apps lists benchmark names, including sized "<app>@<n>" instances.
	Apps []string `json:"apps"`
	// Topologies lists device specs such as "L6" or "G2x3".
	Topologies []string `json:"topologies"`
	// Capacities lists per-trap ion limits.
	Capacities []int `json:"capacities"`
	// Gates lists two-qubit MS implementations (default ["FM"]).
	Gates []string `json:"gates,omitempty"`
	// Reorders lists chain reordering methods (default ["GS"]).
	Reorders []string `json:"reorders,omitempty"`
	// Policies lists compiler policies (default ["baseline"]).
	Policies []string `json:"policies,omitempty"`
}

// Grid is a compiled Space: validated, normalized, and ready for lazy
// indexed expansion. Construct with Space.Compile; safe for concurrent
// use.
type Grid struct {
	space    Space
	gates    []models.GateImpl
	reorders []models.ReorderMethod
	policies []models.PolicyName
	size     int64
	hash     string
}

// Compile validates the grammar and returns its lazy expansion. Every
// axis value is checked up front — app names and sized-app size rules
// (via apps.ValidateName), topology specs, capacities, gate and reorder
// names, and duplicate entries that would corrupt cursor arithmetic — so
// a 4xx-style rejection costs no evaluation work.
func (s Space) Compile() (*Grid, error) {
	if len(s.Apps) == 0 {
		return nil, errors.New("sweep: space: no apps")
	}
	if len(s.Topologies) == 0 {
		return nil, errors.New("sweep: space: no topologies")
	}
	if len(s.Capacities) == 0 {
		return nil, errors.New("sweep: space: no capacities")
	}

	seenApps := make(map[string]bool, len(s.Apps))
	for i, app := range s.Apps {
		if err := apps.ValidateName(app); err != nil {
			return nil, fmt.Errorf("sweep: space: apps[%d]: %w", i, err)
		}
		key := strings.ToLower(app)
		if seenApps[key] {
			return nil, fmt.Errorf("sweep: space: duplicate app %q", app)
		}
		seenApps[key] = true
	}

	maxCap := 0
	seenCaps := make(map[int]bool, len(s.Capacities))
	for i, c := range s.Capacities {
		if c < 1 {
			return nil, fmt.Errorf("sweep: space: capacities[%d]: must be >= 1, got %d", i, c)
		}
		if seenCaps[c] {
			return nil, fmt.Errorf("sweep: space: duplicate capacity %d", c)
		}
		seenCaps[c] = true
		if c > maxCap {
			maxCap = c
		}
	}

	seenTopos := make(map[string]bool, len(s.Topologies))
	for i, topo := range s.Topologies {
		// Registry validation: a bad spec is a compile-time space error
		// carrying the family list, and the trial device is not retained.
		if err := device.ValidateSpec(topo, maxCap); err != nil {
			return nil, fmt.Errorf("sweep: space: topologies[%d]: %w", i, err)
		}
		key := strings.ToLower(topo)
		if seenTopos[key] {
			return nil, fmt.Errorf("sweep: space: duplicate topology %q", topo)
		}
		seenTopos[key] = true
	}

	gates, gateNames, err := enumAxis(s.Gates, []string{models.FM.String()},
		"gates", "gate", models.ParseGateImpl)
	if err != nil {
		return nil, err
	}
	reorders, reorderNames, err := enumAxis(s.Reorders, []string{models.GS.String()},
		"reorders", "reorder", models.ParseReorderMethod)
	if err != nil {
		return nil, err
	}
	policies, policyNames, err := enumAxis(s.Policies, []string{models.PolicyBaseline},
		"policies", "policy", models.ParsePolicy)
	if err != nil {
		return nil, err
	}

	size := int64(1)
	for _, n := range []int{len(s.Apps), len(s.Topologies), len(s.Capacities), len(gates), len(reorders), len(policies)} {
		var ok bool
		if size, ok = mul64(size, int64(n)); !ok {
			return nil, errors.New("sweep: space: expansion size overflows int64")
		}
	}

	norm := Space{
		Apps:       s.Apps,
		Topologies: s.Topologies,
		Capacities: s.Capacities,
		// Store canonical spellings so the space hash (and therefore the
		// cursor) does not depend on the client's capitalization or on
		// whether the defaults were spelled out.
		Gates:    gateNames,
		Reorders: reorderNames,
		Policies: policyNames,
	}
	g := &Grid{space: norm, gates: gates, reorders: reorders, policies: policies, size: size}
	g.hash = g.computeHash()
	return g, nil
}

// enumAxis validates one enumerated sweep axis: substitutes defaults when
// the axis is empty, parses every name through parse, and rejects
// duplicates after normalization (so "fm" and "FM", or "baseline" and
// "BASELINE", collide). It returns the parsed values alongside their
// canonical spellings for the normalized Space. The gates, reorders and
// policies axes all compile through this one helper, so a future axis
// inherits validation, normalization and error wording for free.
func enumAxis[T interface {
	comparable
	fmt.Stringer
}](names, defaults []string, plural, singular string, parse func(string) (T, error)) ([]T, []string, error) {
	if len(names) == 0 {
		names = defaults
	}
	vals := make([]T, 0, len(names))
	canon := make([]string, 0, len(names))
	seen := make(map[T]bool, len(names))
	for i, name := range names {
		v, err := parse(name)
		if err != nil {
			return nil, nil, fmt.Errorf("sweep: space: %s[%d]: %w", plural, i, err)
		}
		if seen[v] {
			return nil, nil, fmt.Errorf("sweep: space: duplicate %s %q", singular, name)
		}
		seen[v] = true
		vals = append(vals, v)
		canon = append(canon, v.String())
	}
	return vals, canon, nil
}

// mul64 multiplies checking for int64 overflow.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// Space returns the normalized grammar (defaults filled, canonical gate
// and reorder spellings).
func (g *Grid) Space() Space { return g.space }

// Size returns the exact number of points the grammar expands to.
func (g *Grid) Size() int64 { return g.size }

// Hash content-addresses the normalized grammar: equal design spaces hash
// equally, and any change to an axis (values or order) changes the hash.
// It is the space-identity half of every cursor.
func (g *Grid) Hash() string { return g.hash }

func (g *Grid) computeHash() string {
	var c models.Canon
	c.Str("space", "v1")
	c.Int("n_apps", len(g.space.Apps))
	for _, a := range g.space.Apps {
		c.Str("app", a)
	}
	c.Int("n_topologies", len(g.space.Topologies))
	for _, t := range g.space.Topologies {
		c.Str("topology", t)
	}
	c.Int("n_capacities", len(g.space.Capacities))
	for _, cap := range g.space.Capacities {
		c.Int("capacity", cap)
	}
	c.Int("n_gates", len(g.space.Gates))
	for _, gt := range g.space.Gates {
		c.Str("gate", gt)
	}
	c.Int("n_reorders", len(g.space.Reorders))
	for _, r := range g.space.Reorders {
		c.Str("reorder", r)
	}
	c.Int("n_policies", len(g.space.Policies))
	for _, p := range g.space.Policies {
		c.Str("policy", p)
	}
	return c.Sum()
}

// PointAt materializes the i-th point of the expansion without touching
// any other point. The total order is mixed-radix over the axes with
// policy fastest: index i decomposes as
//
//	i = (((((app·|T| + topo)·|C| + cap)·|G| + gate)·|R| + reorder)·|P| + policy)
//
// matching the nesting of the paper's evaluation grid with the policy
// axis innermost.
func (g *Grid) PointAt(i int64) core.Point {
	if i < 0 || i >= g.size {
		panic(fmt.Sprintf("sweep: point index %d out of range [0, %d)", i, g.size))
	}
	nP := int64(len(g.policies))
	p := i % nP
	i /= nP
	nR := int64(len(g.reorders))
	r := i % nR
	i /= nR
	nG := int64(len(g.gates))
	gt := i % nG
	i /= nG
	nC := int64(len(g.space.Capacities))
	c := i % nC
	i /= nC
	nT := int64(len(g.space.Topologies))
	t := i % nT
	i /= nT
	return core.Point{
		App:      g.space.Apps[i],
		Topology: g.space.Topologies[t],
		Capacity: g.space.Capacities[c],
		Gate:     g.gates[gt],
		Reorder:  g.reorders[r],
		Policy:   g.policies[p],
	}
}

// Source returns window w of the expansion as a stream source whose
// compile groups are gate siblings (see Group).
func (g *Grid) Source(w Window) core.Source {
	return core.Source{
		Start: w.Start,
		End:   w.End,
		Point: g.PointAt,
		Group: func(i int64) []int64 { return g.Group(i, w) },
		Width: len(g.gates),
	}
}
