package models

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// UnmarshalJSON decodes a params document keyed by Params' json tags.
// Unknown keys are rejected, so a typo'd key in a calibration file or
// request fails loudly instead of silently leaving the field at zero. The
// gate has no default: a document without one is rejected.
func (p *Params) UnmarshalJSON(data []byte) error {
	type params Params // sheds this method, so decoding does not recurse
	// paramsDoc's string Gate shadows the embedded one, so a missing,
	// empty or null gate reaches ParseGateImpl as "".
	type paramsDoc struct {
		params
		Gate string `json:"gate"`
	}
	var doc paramsDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("models: %w", err)
	}
	gate, err := ParseGateImpl(doc.Gate)
	if err != nil {
		return err
	}
	*p = Params(doc.params)
	p.Gate = gate
	return nil
}

// LoadJSON parses a params document (as json.Marshal writes it, or
// written by hand) and validates it, so calibration variants can be
// swapped into the CLI tools without recompiling.
func LoadJSON(data []byte) (Params, error) {
	var p Params
	if err := json.Unmarshal(data, &p); err != nil {
		return Params{}, err
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}
