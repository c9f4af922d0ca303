package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/sim"
)

// UnmarshalJSON decodes a point, rejecting unknown fields so a typo'd
// key fails loudly instead of silently running a default. Omitted or
// empty gate and reorder fields default to the paper's FM / GS
// microarchitecture; an omitted or empty policy is the baseline.
func (p *Point) UnmarshalJSON(data []byte) error {
	type point Point // sheds this method, so decoding does not recurse
	doc := point{Gate: models.FM, Reorder: models.GS}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("core: point: %w", err)
	}
	*p = Point(doc)
	return nil
}

// Validate rejects points that are structurally unable to run, before any
// compile or simulation work is spent on them. A sized "<app>@<n>" name
// is checked against its family's size rule here (no circuit is built),
// so services can turn a bad size into a request error instead of an
// evaluation failure; a plain unknown app name is still an evaluation
// outcome, since only the benchmark registry can settle it.
func (p Point) Validate() error {
	if p.App == "" {
		return errors.New("core: point: missing app")
	}
	if strings.IndexByte(p.App, '@') > 0 {
		if err := apps.ValidateName(p.App); err != nil {
			return err
		}
	}
	if p.Topology == "" {
		return errors.New("core: point: missing topology")
	}
	if p.Capacity < 1 {
		return fmt.Errorf("core: point: capacity must be >= 1, got %d", p.Capacity)
	}
	// Check the spec against the topology family table. Capacity is
	// clamped to the device minimum first, so a structurally sound spec
	// with capacity 1 stays an evaluation-time outcome as before.
	specCap := p.Capacity
	if specCap < 2 {
		specCap = 2
	}
	if err := device.ValidateSpec(p.Topology, specCap); err != nil {
		return fmt.Errorf("core: point: %w", err)
	}
	if _, err := models.ParsePolicy(string(p.Policy)); err != nil {
		return fmt.Errorf("core: point: %w", err)
	}
	return nil
}

// outcomeJSON is the wire shape of an outcome: a failed point carries its
// error string, a successful one the full simulation result.
type outcomeJSON struct {
	Point  Point       `json:"point"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// MarshalJSON encodes the outcome with the error flattened to a string.
func (o Outcome) MarshalJSON() ([]byte, error) {
	j := outcomeJSON{Point: o.Point, Result: o.Result}
	if o.Err != nil {
		j.Error = o.Err.Error()
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes an outcome written by MarshalJSON. The error, if
// any, is reconstructed as an opaque error value.
func (o *Outcome) UnmarshalJSON(data []byte) error {
	var raw outcomeJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("core: outcome: %w", err)
	}
	*o = Outcome{Point: raw.Point, Result: raw.Result}
	if raw.Error != "" {
		o.Err = errors.New(raw.Error)
	}
	return nil
}

// AppendCanonical writes the point's identity into c in a fixed order.
// The baseline policy appends nothing, so baseline hashes and cache keys
// are unchanged from before the policy axis existed — a warm cache stays
// warm across the upgrade.
func (p Point) AppendCanonical(c *models.Canon) {
	c.Str("point", "v1")
	c.Str("app", p.App)
	c.Str("topology", p.Topology)
	c.Int("capacity", p.Capacity)
	c.Str("gate", p.Gate.String())
	c.Str("reorder", p.Reorder.String())
	if !p.Policy.IsBaseline() {
		c.Str("policy", p.Policy.String())
	}
}

// Hash returns a hex SHA-256 content hash of the point.
func (p Point) Hash() string {
	var c models.Canon
	p.AppendCanonical(&c)
	return c.Sum()
}

// CacheKey derives the content address of one toolflow evaluation: the
// joint hash of the design point and the physical parameters, so outcomes
// computed under different calibrations can share one cache without
// cross-talk. This is exactly the key Toolflow.Do stores outcomes under.
func CacheKey(pt Point, params models.Params) string {
	return cacheKey(pt, paramsHash(params))
}

// paramsHash hashes the calibration with Gate normalized away: every
// design point carries its own gate implementation, which the toolflow
// applies over params.Gate, so calibrations differing only in Gate must
// share cache entries.
func paramsHash(params models.Params) string {
	params.Gate = 0
	return params.Hash()
}

// cacheKey combines a point with a precomputed calibration hash.
func cacheKey(pt Point, paramsHash string) string {
	var c models.Canon
	pt.AppendCanonical(&c)
	c.Str("params_hash", paramsHash)
	return c.Sum()
}
