// Package sweep implements the server-side design-space sweep. A Grid is
// an ordered set of design points, validated up front and expanded
// lazily, one point at a time; it reports its exact size and hash and
// mints index windows, shards, resume cursors and stream sources, in the
// same way whichever of its two constructors built it. The stream engine
// (core.Toolflow.Stream) finds a source's compile groups itself.
//
// Space.Compile builds a Grid from the wire-level grammar, a compact
// cross product of apps × topologies × capacities × gates × reorder
// methods × compiler policies. Any point materializes by index without
// enumerating the rest, so a TITAN-scale million-point search costs the
// server O(1) memory per in-flight point, never O(grid). Apps vary
// slowest, then topologies, capacities, gates and reorder methods, with
// policies fastest: the nesting of the paper's evaluation grid, with
// adjacent points comparing policies on an otherwise identical
// configuration.
//
// List builds a Grid from a points list, in list order.
//
// The order is part of the cursor contract: a cursor is (grid identity,
// next index), so resuming can neither skip nor duplicate points.
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

// Grid is a validated, ordered set of design points, ready for lazy
// indexed expansion. Construct with Space.Compile or List; safe for
// concurrent use.
type Grid struct {
	src  core.Source // the whole expansion, [0, Size())
	hash string
}

// grammar is a compiled Space: the request's axes, with the enumerated
// ones parsed (and defaulted when empty).
type grammar struct {
	space    Space
	gates    []models.GateImpl
	reorders []models.ReorderMethod
	policies []models.PolicyName
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

	gates, err := enumAxis(s.Gates, []string{models.FM.String()},
		"gates", "gate", models.ParseGateImpl)
	if err != nil {
		return nil, err
	}
	reorders, err := enumAxis(s.Reorders, []string{models.GS.String()},
		"reorders", "reorder", models.ParseReorderMethod)
	if err != nil {
		return nil, err
	}
	policies, err := enumAxis(s.Policies, []string{models.PolicyBaseline},
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

	x := &grammar{space: s, gates: gates, reorders: reorders, policies: policies}
	return &Grid{
		src:  core.Source{End: size, Point: x.pointAt, Width: len(gates)},
		hash: x.hash(),
	}, nil
}

// List validates a points list and returns it as a grid whose expansion
// is the list, in order (see core.List). Its hash covers the canonical
// points under a tag no grammar hash starts with, so a cursor resumes
// only an equal list.
func List(points []core.Point) (*Grid, error) {
	var c models.Canon
	c.Str("list", "v1")
	c.Int("n_points", len(points))
	for i, pt := range points {
		if err := pt.Validate(); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		pt.AppendCanonical(&c)
	}
	return &Grid{src: core.List(points), hash: c.Sum()}, nil
}

// enumAxis validates one enumerated sweep axis: substitutes defaults when
// the axis is empty, parses every name through parse, and rejects
// duplicates after normalization (so "fm" and "FM", or "baseline" and
// "BASELINE", collide). The gates, reorders and policies axes all compile
// through this one helper, so a future axis inherits validation,
// normalization and error wording for free.
func enumAxis[T comparable](names, defaults []string, plural, singular string, parse func(string) (T, error)) ([]T, error) {
	if len(names) == 0 {
		names = defaults
	}
	vals := make([]T, 0, len(names))
	seen := make(map[T]bool, len(names))
	for i, name := range names {
		v, err := parse(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: space: %s[%d]: %w", plural, i, err)
		}
		if seen[v] {
			return nil, fmt.Errorf("sweep: space: duplicate %s %q", singular, name)
		}
		seen[v] = true
		vals = append(vals, v)
	}
	return vals, nil
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

// Size returns the exact number of points the grid expands to.
func (g *Grid) Size() int64 { return g.src.End }

// Hash content-addresses the grid: equal grammars, or equal lists, hash
// equally, and any change to an axis or a point (value or order) changes
// the hash. It is the identity half of every cursor.
func (g *Grid) Hash() string { return g.hash }

func (x *grammar) hash() string {
	var c models.Canon
	c.Str("space", "v1")
	c.Int("n_apps", len(x.space.Apps))
	for _, a := range x.space.Apps {
		c.Str("app", a)
	}
	c.Int("n_topologies", len(x.space.Topologies))
	for _, t := range x.space.Topologies {
		c.Str("topology", t)
	}
	c.Int("n_capacities", len(x.space.Capacities))
	for _, cap := range x.space.Capacities {
		c.Int("capacity", cap)
	}
	// Enumerated axes hash by canonical name, so the hash (and therefore
	// the cursor) does not depend on the client's capitalization or on
	// whether the defaults were spelled out.
	c.Int("n_gates", len(x.gates))
	for _, gt := range x.gates {
		c.Str("gate", gt.String())
	}
	c.Int("n_reorders", len(x.reorders))
	for _, r := range x.reorders {
		c.Str("reorder", r.String())
	}
	c.Int("n_policies", len(x.policies))
	for _, p := range x.policies {
		c.Str("policy", p.String())
	}
	return c.Sum()
}

// PointAt materializes the i-th point of the expansion without touching
// any other point.
func (g *Grid) PointAt(i int64) core.Point {
	if i < 0 || i >= g.Size() {
		panic(fmt.Sprintf("sweep: point index %d out of range [0, %d)", i, g.Size()))
	}
	return g.src.Point(i)
}

// pointAt is a grammar's expansion order: mixed-radix over the axes with
// policy fastest, so index i decomposes as
//
//	i = (((((app·|T| + topo)·|C| + cap)·|G| + gate)·|R| + reorder)·|P| + policy)
//
// matching the nesting of the paper's evaluation grid with the policy
// axis innermost.
func (x *grammar) pointAt(i int64) core.Point {
	nP := int64(len(x.policies))
	p := i % nP
	i /= nP
	nR := int64(len(x.reorders))
	r := i % nR
	i /= nR
	nG := int64(len(x.gates))
	gt := i % nG
	i /= nG
	nC := int64(len(x.space.Capacities))
	c := i % nC
	i /= nC
	nT := int64(len(x.space.Topologies))
	t := i % nT
	i /= nT
	return core.Point{
		App:      x.space.Apps[i],
		Topology: x.space.Topologies[t],
		Capacity: x.space.Capacities[c],
		Gate:     x.gates[gt],
		Reorder:  x.reorders[r],
		Policy:   x.policies[p],
	}
}

// Source returns window w of the expansion as a stream source.
func (g *Grid) Source(w Window) core.Source {
	src := g.src
	src.Start, src.End = w.Start, w.End
	return src
}
