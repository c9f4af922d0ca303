// Package models holds the performance and fidelity models of §VII: the
// four Mølmer-Sørensen gate-time models (AM1, AM2, PM, FM), the Table I
// shuttling operation times, the split/merge/move heating constants, and
// the Eq. 1 gate-fidelity model F = 1 − Γτ − A(2n̄+1) with A ∝ N/ln N.
//
// All durations are in microseconds. Motional energy is in quanta. The
// background heating rate Γ is in quanta per second as quoted by the
// experimental literature and converted internally.
package models

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/device"
)

// GateImpl selects the two-qubit MS gate implementation (§VII.A).
type GateImpl uint8

const (
	// AM1 is the robust amplitude-modulated gate of Wu et al. [59]:
	// τ(d) = 100d − 22 µs.
	AM1 GateImpl = iota
	// AM2 is the faster amplitude-modulated gate of Trout et al. [61]:
	// τ(d) = 38d + 10 µs.
	AM2
	// PM is the phase-modulated gate of Milne et al. [62]:
	// τ(d) = 5d + 160 µs.
	PM
	// FM is the frequency-modulated gate of Leung et al. [40]:
	// τ(N) = max(13.33N − 54, 100) µs, independent of ion separation.
	FM
)

var gateImplNames = [...]string{AM1: "AM1", AM2: "AM2", PM: "PM", FM: "FM"}

// String names the implementation as in the paper.
func (g GateImpl) String() string {
	if int(g) < len(gateImplNames) {
		return gateImplNames[g]
	}
	return fmt.Sprintf("GateImpl(%d)", uint8(g))
}

// GateImpls lists all implementations in paper order.
func GateImpls() []GateImpl { return []GateImpl{AM1, AM2, PM, FM} }

// ParseGateImpl resolves a name like "FM" (case-insensitive).
func ParseGateImpl(s string) (GateImpl, error) {
	for _, g := range GateImpls() {
		if equalFold(s, g.String()) {
			return g, nil
		}
	}
	return 0, fmt.Errorf("models: unknown gate implementation %q (want AM1|AM2|PM|FM)", s)
}

// MarshalText encodes the implementation by its paper name.
func (g GateImpl) MarshalText() ([]byte, error) { return []byte(g.String()), nil }

// UnmarshalText resolves a name as ParseGateImpl does. Empty text leaves g
// unchanged, so a decoder's preset value is the default.
func (g *GateImpl) UnmarshalText(text []byte) error { return unmarshalEnum(g, text, ParseGateImpl) }

// unmarshalEnum sets *v to parse(text), leaving it unchanged for empty
// text or a parse error.
func unmarshalEnum[T any](v *T, text []byte, parse func(string) (T, error)) error {
	if len(text) == 0 {
		return nil
	}
	x, err := parse(string(text))
	if err == nil {
		*v = x
	}
	return err
}

// ReorderMethod selects how chains are reordered before splits (§IV.C).
type ReorderMethod uint8

const (
	// GS is gate-based swapping: one SWAP (3 MS gates + single-qubit
	// corrections) exchanges the states of an arbitrary in-trap pair.
	GS ReorderMethod = iota
	// IS is physical ion swapping: adjacent ions are isolated by a split,
	// rotated 180 degrees, and merged back — one hop per position.
	IS
)

// String names the method as in the paper.
func (r ReorderMethod) String() string {
	if r == GS {
		return "GS"
	}
	return "IS"
}

// ReorderMethods lists both methods in paper order.
func ReorderMethods() []ReorderMethod { return []ReorderMethod{GS, IS} }

// ParseReorderMethod resolves "GS" or "IS" (case-insensitive).
func ParseReorderMethod(s string) (ReorderMethod, error) {
	switch {
	case equalFold(s, "GS"):
		return GS, nil
	case equalFold(s, "IS"):
		return IS, nil
	}
	return 0, fmt.Errorf("models: unknown reorder method %q (want GS|IS)", s)
}

// MarshalText encodes the method by its paper name.
func (r ReorderMethod) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText resolves a name as ParseReorderMethod does. Empty text
// leaves r unchanged, so a decoder's preset value is the default.
func (r *ReorderMethod) UnmarshalText(text []byte) error {
	return unmarshalEnum(r, text, ParseReorderMethod)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 'a' - 'A'
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Params bundles every physical constant of the simulation. The zero
// value is not useful; start from Default.
//
// The struct is the parameter table. Each field's tags give its wire key
// (json), the name it is hashed under (canon) and its range rule (valid,
// a key of validRules); JSON encoding, AppendCanonical and Validate all
// follow them in declaration order. A new parameter is one tagged field.
// Adding one changes every Hash, so caches keyed by the old hashes go cold.
type Params struct {
	// Gate time model (§VII.A).
	Gate GateImpl `json:"gate" canon:"gate" valid:"one of AM1|AM2|PM|FM"`
	// OneQubitTime is the duration of a single-qubit rotation (µs).
	OneQubitTime float64 `json:"one_qubit_time_us" canon:"one_qubit_time" valid:"positive"`
	// MeasureTime is the duration of a qubit readout (µs).
	MeasureTime float64 `json:"measure_time_us" canon:"measure_time" valid:"positive"`

	// Shuttling times (Table I, µs); MoveTime is per segment length unit.
	MoveTime      float64 `json:"move_time_us" canon:"move_time" valid:"positive"`
	SplitTime     float64 `json:"split_time_us" canon:"split_time" valid:"positive"`
	MergeTime     float64 `json:"merge_time_us" canon:"merge_time" valid:"positive"`
	YJunctionTime float64 `json:"y_junction_time_us" canon:"y_junction_time" valid:"positive"`
	XJunctionTime float64 `json:"x_junction_time_us" canon:"x_junction_time" valid:"positive"`
	// IonSwapRotateTime is the 180-degree physical rotation inside an IS
	// hop (Kaufmann et al. [63]); the hop also pays one split + one merge.
	IonSwapRotateTime float64 `json:"ion_swap_rotate_time_us" canon:"ion_swap_rotate_time" valid:"positive"`

	// Heating model (§VII.B), in quanta: K1 is added to each sub-chain on
	// split, and on merge; K2 per segment length unit moved;
	// JunctionHeating per junction crossing.
	K1              float64 `json:"k1_quanta" canon:"k1" valid:"non-negative"`
	K2              float64 `json:"k2_quanta" canon:"k2" valid:"non-negative"`
	JunctionHeating float64 `json:"junction_heating_quanta" canon:"junction_heating" valid:"non-negative"`

	// Fidelity model (§VII.C, Eq. 1).
	// BackgroundRate is Γ in quanta/s; the per-gate background error is
	// Γ·τ with τ converted to seconds.
	BackgroundRate float64 `json:"background_rate_per_s" canon:"background_rate" valid:"non-negative"`
	// A0 scales the laser-instability term: A = A0 · N/ln(N).
	A0 float64 `json:"a0" canon:"a0" valid:"non-negative"`
	// A1Q is the motional sensitivity of single-qubit gates (they address
	// one ion and couple far less to the chain motion).
	A1Q float64 `json:"a1q" canon:"a1q" valid:"non-negative"`
	// MeasureFidelity is the per-qubit readout fidelity.
	MeasureFidelity float64 `json:"measure_fidelity" canon:"measure_fidelity" valid:"in (0,1]"`

	// SwapMSGates and SwapOneQGates define the GS SWAP decomposition
	// (3 MS + single-qubit corrections, §IV.C / Figure 5).
	SwapMSGates   int `json:"swap_ms_gates" canon:"swap_ms_gates" valid:">= 1"`
	SwapOneQGates int `json:"swap_one_q_gates" canon:"swap_one_q_gates" valid:"non-negative"`

	// Photonic interconnect model for multi-module (Mod<k>:<inner>)
	// devices. A link transit establishes remote entanglement over the
	// optical link and teleports the detached ion's state onto a fresh
	// cooled ion on the far side, so it pays one flat latency and one
	// infidelity hit, and resets accumulated transit heating.
	// PhotonicLinkLatency is that flat duration (µs). Zero is valid: params
	// documents that predate photonic links decode with the zero value,
	// and single-module devices never exercise it.
	PhotonicLinkLatency float64 `json:"photonic_link_latency_us" canon:"photonic_link_latency" valid:"non-negative"`
	// PhotonicLinkInfidelity is the state error of one link transit.
	PhotonicLinkInfidelity float64 `json:"photonic_link_infidelity" canon:"photonic_link_infidelity" valid:"in [0,1)"`
}

// Default returns the paper-faithful constants: Table I shuttle times, the
// published gate-time formulas, k1 = 0.1 and k2 = 0.01 (an order of
// magnitude below Honeywell's measured heating, §VII.B), and the
// calibrated fidelity constants discussed in DESIGN.md §3. The gate
// implementation defaults to FM as in the Figure 6/7 experiments.
func Default() Params {
	return Params{
		Gate:              FM,
		OneQubitTime:      5,
		MeasureTime:       100,
		MoveTime:          5,
		SplitTime:         80,
		MergeTime:         80,
		YJunctionTime:     100,
		XJunctionTime:     120,
		IonSwapRotateTime: 42,
		K1:                0.1,
		K2:                0.01,
		JunctionHeating:   0.01,
		BackgroundRate:    0.5,
		A0:                1e-5,
		A1Q:               1e-6,
		MeasureFidelity:   0.9999,
		SwapMSGates:       3,
		SwapOneQGates:     4,
		// Heralded remote entanglement plus teleportation: hundreds of µs
		// at ~1% infidelity is the optimistic near-term operating point
		// the TITAN-style studies assume (PAPERS.md).
		PhotonicLinkLatency:    300,
		PhotonicLinkInfidelity: 0.02,
	}
}

// validRules maps each valid tag to the condition a good value meets.
// Every rule is written as that condition, so NaN fails them all.
var validRules = map[string]func(float64) bool{
	"positive":             func(v float64) bool { return v > 0 },
	"non-negative":         func(v float64) bool { return v >= 0 },
	">= 1":                 func(v float64) bool { return v >= 1 },
	"in (0,1]":             func(v float64) bool { return v > 0 && v <= 1 },
	"in [0,1)":             func(v float64) bool { return v >= 0 && v < 1 },
	"one of AM1|AM2|PM|FM": func(v float64) bool { return v < float64(len(gateImplNames)) },
}

// paramField holds one Params field's tags.
type paramField struct {
	key   string // json: the wire key, which Validate names
	canon string // canon: the name AppendCanonical hashes
	rule  string // valid: a key of validRules, quoted in Validate errors
	ok    func(float64) bool
}

// paramFields lists Params' fields in declaration order. A field with a
// bad tag or type panics at package init, so it cannot ship.
var paramFields = fieldsOf(reflect.TypeOf(Params{}))

// fieldsOf reads the tags of struct type t's fields. It panics on a field
// with a missing tag, an unknown rule or a type other than float64, int
// or GateImpl.
func fieldsOf(t reflect.Type) []paramField {
	fs := make([]paramField, t.NumField())
	for i := range fs {
		sf := t.Field(i)
		f := paramField{key: sf.Tag.Get("json"), canon: sf.Tag.Get("canon"), rule: sf.Tag.Get("valid")}
		f.ok = validRules[f.rule]
		typed := sf.Type == reflect.TypeOf(0.0) || sf.Type == reflect.TypeOf(0) || sf.Type == reflect.TypeOf(FM)
		if f.key == "" || f.canon == "" || f.ok == nil || !typed {
			panic(fmt.Sprintf("models: Params.%s needs json, canon and known valid tags and a float64, int or GateImpl type", sf.Name))
		}
		fs[i] = f
	}
	return fs
}

// Validate rejects non-physical parameter values. It checks the fields in
// declaration order and names the first bad one by its wire key.
func (p Params) Validate() error {
	v := reflect.ValueOf(&p).Elem()
	for i, f := range paramFields {
		x := v.Field(i)
		var n float64
		switch x.Kind() {
		case reflect.Float64:
			n = x.Float()
		case reflect.Int:
			n = float64(x.Int())
		default: // GateImpl
			n = float64(x.Uint())
		}
		if !f.ok(n) {
			return fmt.Errorf("models: %s must be %s, got %v", f.key, f.rule, x)
		}
	}
	return nil
}

// TwoQubitTime returns the MS gate duration in µs for ions separated by d
// positions (adjacent: d=1) in a chain of n ions, under the configured
// implementation (§VII.A).
func (p *Params) TwoQubitTime(d, n int) float64 {
	return TwoQubitTime(p.Gate, d, n)
}

// TwoQubitTime returns the MS gate duration in µs for implementation g.
func TwoQubitTime(g GateImpl, d, n int) float64 {
	fd := float64(d)
	switch g {
	case AM1:
		return 100*fd - 22
	case AM2:
		return 38*fd + 10
	case PM:
		return 5*fd + 160
	default: // FM
		t := 13.33*float64(n) - 54
		if t < 100 {
			return 100
		}
		return t
	}
}

// JunctionTime returns the Table I crossing time for a junction kind.
// Degree-2 pass junctions cost a single move unit.
func (p *Params) JunctionTime(k device.JunctionKind) float64 {
	switch k {
	case device.JunctionX:
		return p.XJunctionTime
	case device.JunctionY:
		return p.YJunctionTime
	default:
		return p.MoveTime
	}
}

// IonSwapTime returns the duration of one IS hop: split + rotate + merge.
func (p *Params) IonSwapTime() float64 {
	return p.SplitTime + p.IonSwapRotateTime + p.MergeTime
}

// laserInstability returns A = A0 · N/ln(N) for a chain of n ions, the
// thermal laser-beam instability factor of Eq. 1. Chains shorter than two
// ions cannot host a two-qubit gate; n is clamped to 2 for safety.
func (p *Params) laserInstability(n int) float64 {
	if n < 2 {
		n = 2
	}
	return p.A0 * float64(n) / math.Log(float64(n))
}

// ErrorTerms holds the two error contributions of Eq. 1 for one gate.
type ErrorTerms struct {
	// Background is Γ·τ, the error from anomalous trap heating during the
	// gate.
	Background float64
	// Motional is A(2n̄+1), the error from chain temperature and laser
	// beam instability.
	Motional float64
}

// Error returns the total gate error, clamped to [0,1].
func (e ErrorTerms) Error() float64 {
	t := e.Background + e.Motional
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// Fidelity returns 1 − Error().
func (e ErrorTerms) Fidelity() float64 { return 1 - e.Error() }

// TwoQubitError evaluates Eq. 1 for an MS gate of duration tau (µs) in a
// chain of n ions with per-ion motional occupancy nbar (quanta).
func (p *Params) TwoQubitError(tau float64, n int, nbar float64) ErrorTerms {
	return ErrorTerms{
		Background: p.BackgroundRate * tau * 1e-6,
		Motional:   p.laserInstability(n) * (2*nbar + 1),
	}
}

// OneQubitError evaluates the single-qubit analogue of Eq. 1.
func (p *Params) OneQubitError(nbar float64) ErrorTerms {
	return ErrorTerms{
		Background: p.BackgroundRate * p.OneQubitTime * 1e-6,
		Motional:   p.A1Q * (2*nbar + 1),
	}
}

// String summarizes the microarchitecture-relevant parameters.
func (p Params) String() string {
	return fmt.Sprintf("gate=%s k1=%g k2=%g Γ=%g/s A0=%g", p.Gate, p.K1, p.K2, p.BackgroundRate, p.A0)
}

// TableI renders the shuttling primitive times in the layout of the
// paper's Table I.
func (p Params) TableI() string {
	return fmt.Sprintf(`Operation                            Time
Move ion through one segment      %5.0fµs
Splitting operation on a chain    %5.0fµs
Merging an ion with a chain       %5.0fµs
Crossing Y-junction               %5.0fµs
Crossing X-junction               %5.0fµs
`, p.MoveTime, p.SplitTime, p.MergeTime, p.YJunctionTime, p.XJunctionTime)
}
