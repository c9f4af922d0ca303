package models

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func TestGateTimeFormulas(t *testing.T) {
	tests := []struct {
		g    GateImpl
		d, n int
		want float64
	}{
		{AM1, 1, 10, 78},    // 100*1-22
		{AM1, 3, 10, 278},   // 100*3-22
		{AM2, 1, 10, 48},    // 38*1+10
		{AM2, 5, 10, 200},   // 38*5+10
		{PM, 1, 10, 165},    // 5*1+160
		{PM, 20, 30, 260},   // 5*20+160
		{FM, 1, 5, 100},     // below the 100µs floor
		{FM, 9, 11, 100},    // 13.33*11-54 = 92.63 -> floor
		{FM, 1, 20, 212.6},  // 13.33*20-54
		{FM, 15, 20, 212.6}, // FM independent of d
	}
	for _, tt := range tests {
		got := TwoQubitTime(tt.g, tt.d, tt.n)
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("TwoQubitTime(%s, d=%d, n=%d) = %g, want %g", tt.g, tt.d, tt.n, got, tt.want)
		}
	}
}

func TestGateTimeProperties(t *testing.T) {
	// AM/PM times grow with distance; FM is distance-flat but grows with
	// chain length.
	f := func(dRaw, nRaw uint8) bool {
		d := int(dRaw%30) + 1
		n := int(nRaw%30) + d + 1
		for _, g := range []GateImpl{AM1, AM2, PM} {
			if d+1 <= n-1 && TwoQubitTime(g, d+1, n) <= TwoQubitTime(g, d, n) {
				return false
			}
			// AM/PM independent of chain length.
			if TwoQubitTime(g, d, n) != TwoQubitTime(g, d, n+5) {
				return false
			}
		}
		if TwoQubitTime(FM, d, n) != TwoQubitTime(FM, 1, n) {
			return false
		}
		if TwoQubitTime(FM, d, n+5) < TwoQubitTime(FM, d, n) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPaperGateTimeCrossovers(t *testing.T) {
	// Short-range gates in small chains: AM2 fastest (paper §X.A, QAOA).
	if !(TwoQubitTime(AM2, 1, 15) < TwoQubitTime(FM, 1, 15)) {
		t.Error("AM2 should beat FM at short range")
	}
	// Long-range gates: FM/PM beat AM gates (paper §X.A, QFT/SquareRoot).
	if !(TwoQubitTime(FM, 14, 15) < TwoQubitTime(AM1, 14, 15)) {
		t.Error("FM should beat AM1 at long range")
	}
	if !(TwoQubitTime(PM, 14, 15) < TwoQubitTime(AM2, 14, 15)) {
		t.Error("PM should beat AM2 at long range")
	}
}

func TestGateImplParseAndString(t *testing.T) {
	for _, g := range GateImpls() {
		parsed, err := ParseGateImpl(g.String())
		if err != nil || parsed != g {
			t.Errorf("round trip %s failed: %v", g, err)
		}
	}
	if _, err := ParseGateImpl("am1"); err != nil {
		t.Error("case-insensitive parse failed")
	}
	if _, err := ParseGateImpl("XY"); err == nil {
		t.Error("bad impl should fail")
	}
	if GateImpl(77).String() == "" {
		t.Error("out-of-range String should not be empty")
	}
}

func TestReorderMethodParse(t *testing.T) {
	if GS.String() != "GS" || IS.String() != "IS" {
		t.Error("reorder names")
	}
	if m, err := ParseReorderMethod("is"); err != nil || m != IS {
		t.Error("parse is")
	}
	if _, err := ParseReorderMethod("zz"); err == nil {
		t.Error("bad method should fail")
	}
	if len(ReorderMethods()) != 2 {
		t.Error("ReorderMethods")
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejections sets each field in turn to one value outside its
// range and, for float fields, to NaN. Each is rejected with an error
// naming the field's wire key.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		key   string
		field func(*Params) any // a pointer to the field
		bad   float64
	}{
		{"gate", func(p *Params) any { return &p.Gate }, 4},
		{"one_qubit_time_us", func(p *Params) any { return &p.OneQubitTime }, 0},
		{"measure_time_us", func(p *Params) any { return &p.MeasureTime }, -1},
		{"move_time_us", func(p *Params) any { return &p.MoveTime }, 0},
		{"split_time_us", func(p *Params) any { return &p.SplitTime }, 0},
		{"merge_time_us", func(p *Params) any { return &p.MergeTime }, -80},
		{"y_junction_time_us", func(p *Params) any { return &p.YJunctionTime }, 0},
		{"x_junction_time_us", func(p *Params) any { return &p.XJunctionTime }, 0},
		{"ion_swap_rotate_time_us", func(p *Params) any { return &p.IonSwapRotateTime }, 0},
		{"k1_quanta", func(p *Params) any { return &p.K1 }, -1},
		{"k2_quanta", func(p *Params) any { return &p.K2 }, -1e-9},
		{"junction_heating_quanta", func(p *Params) any { return &p.JunctionHeating }, -1},
		{"background_rate_per_s", func(p *Params) any { return &p.BackgroundRate }, -0.5},
		{"a0", func(p *Params) any { return &p.A0 }, -1e-5},
		{"a1q", func(p *Params) any { return &p.A1Q }, -1},
		{"measure_fidelity", func(p *Params) any { return &p.MeasureFidelity }, 1.0001},
		{"swap_ms_gates", func(p *Params) any { return &p.SwapMSGates }, 0},
		{"swap_one_q_gates", func(p *Params) any { return &p.SwapOneQGates }, -1},
		{"photonic_link_latency_us", func(p *Params) any { return &p.PhotonicLinkLatency }, -1},
		{"photonic_link_infidelity", func(p *Params) any { return &p.PhotonicLinkInfidelity }, 1},
	}
	if n := reflect.TypeOf(Params{}).NumField(); len(cases) != n {
		t.Fatalf("%d cases for %d Params fields", len(cases), n)
	}
	for _, tc := range cases {
		vals := []float64{tc.bad}
		if _, ok := tc.field(new(Params)).(*float64); ok {
			vals = append(vals, math.NaN())
		}
		for _, v := range vals {
			p := Default()
			switch f := tc.field(&p).(type) {
			case *float64:
				*f = v
			case *int:
				*f = int(v)
			case *GateImpl:
				*f = GateImpl(v)
			}
			if err := p.Validate(); err == nil || !strings.HasPrefix(err.Error(), "models: "+tc.key+" must be ") {
				t.Errorf("%s = %v: Validate() = %v, want an error naming %s", tc.key, v, err, tc.key)
			}
		}
	}

	// Range edges are valid.
	p := Default()
	p.K1, p.MeasureFidelity, p.SwapMSGates, p.SwapOneQGates = 0, 1, 1, 0
	p.PhotonicLinkLatency, p.PhotonicLinkInfidelity = 0, 0
	if err := p.Validate(); err != nil {
		t.Errorf("range edges rejected: %v", err)
	}

	// With several bad fields, the first in declaration order is named,
	// every time.
	p = Default()
	p.SplitTime, p.K1, p.MeasureFidelity, p.PhotonicLinkInfidelity = 0, -1, math.NaN(), 2
	for i := 0; i < 50; i++ {
		if err := p.Validate(); err == nil || err.Error() != "models: split_time_us must be positive, got 0" {
			t.Fatalf("Validate() = %v, want the split_time_us error", err)
		}
	}
}

// TestFieldsOfRejectsBadFields checks what keeps a half-declared
// parameter from shipping: each of these fields panics the table builder,
// which for Params runs at package init.
func TestFieldsOfRejectsBadFields(t *testing.T) {
	for name, typ := range map[string]reflect.Type{
		"no valid tag": reflect.TypeOf(struct {
			X float64 `json:"x" canon:"x"`
		}{}),
		"unknown rule": reflect.TypeOf(struct {
			X float64 `json:"x" canon:"x" valid:"small"`
		}{}),
		"no canon tag": reflect.TypeOf(struct {
			X float64 `json:"x" valid:"positive"`
		}{}),
		"unsupported type": reflect.TypeOf(struct {
			X float32 `json:"x" canon:"x" valid:"positive"`
		}{}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: fieldsOf did not panic", name)
				}
			}()
			fieldsOf(typ)
		}()
	}
}

func TestJunctionTimes(t *testing.T) {
	p := Default()
	if got := p.JunctionTime(device.JunctionY); got != 100 {
		t.Errorf("Y junction = %g, want 100", got)
	}
	if got := p.JunctionTime(device.JunctionX); got != 120 {
		t.Errorf("X junction = %g, want 120", got)
	}
	if got := p.JunctionTime(device.JunctionPass); got != p.MoveTime {
		t.Errorf("pass junction = %g, want move time", got)
	}
}

func TestIonSwapTime(t *testing.T) {
	p := Default()
	if got := p.IonSwapTime(); got != 80+42+80 {
		t.Errorf("IonSwapTime = %g, want 202", got)
	}
}

func TestEquationOneShape(t *testing.T) {
	p := Default()
	// Cold chain: error should be small (~1e-4 scale).
	cold := p.TwoQubitError(212.6, 20, 0)
	if cold.Error() > 1e-3 {
		t.Errorf("cold 20-ion gate error = %g, want < 1e-3", cold.Error())
	}
	// Motional term grows linearly with nbar.
	hot := p.TwoQubitError(212.6, 20, 10)
	wantRatio := (2*10.0 + 1) / 1.0
	gotRatio := hot.Motional / cold.Motional
	if math.Abs(gotRatio-wantRatio) > 1e-9 {
		t.Errorf("motional ratio = %g, want %g", gotRatio, wantRatio)
	}
	// Laser instability grows with chain length: error(35) > error(20).
	if p.TwoQubitError(212.6, 35, 2).Motional <= p.TwoQubitError(212.6, 20, 2).Motional {
		t.Error("motional error should grow with chain length")
	}
	// Background grows with gate time.
	if p.TwoQubitError(400, 20, 0).Background <= p.TwoQubitError(100, 20, 0).Background {
		t.Error("background error should grow with duration")
	}
	// Paper Fig 6g: motional dominates background at moderate temperature.
	terms := p.TwoQubitError(212.6, 20, 5)
	if terms.Motional < 5*terms.Background {
		t.Errorf("motional (%g) should dominate background (%g)", terms.Motional, terms.Background)
	}
}

func TestErrorClamping(t *testing.T) {
	p := Default()
	e := p.TwoQubitError(1e12, 35, 1e9)
	if e.Error() != 1 {
		t.Errorf("huge error should clamp to 1, got %g", e.Error())
	}
	if e.Fidelity() != 0 {
		t.Errorf("fidelity should clamp to 0, got %g", e.Fidelity())
	}
	if (ErrorTerms{Background: -1}).Error() != 0 {
		t.Error("negative total should clamp to 0")
	}
}

func TestOneQubitError(t *testing.T) {
	p := Default()
	e := p.OneQubitError(0)
	if e.Error() > 1e-4 {
		t.Errorf("1Q error = %g, want tiny", e.Error())
	}
	if p.OneQubitError(50).Motional <= e.Motional {
		t.Error("1Q motional error should grow with nbar")
	}
}

func TestLaserInstabilityClamp(t *testing.T) {
	p := Default()
	// n < 2 clamps rather than dividing by log(1)=0.
	if got := p.laserInstability(1); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("laserInstability(1) = %g", got)
	}
}

func TestTableIRendering(t *testing.T) {
	out := Default().TableI()
	for _, want := range []string{"80", "100", "120", "5"} {
		if !containsStr(out, want) {
			t.Errorf("TableI missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestParamsJSONRoundTrip(t *testing.T) {
	orig := Default()
	orig.Gate = AM2
	orig.A0 = 7e-6
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != orig {
		t.Errorf("round trip mismatch:\n%+v\n%+v", orig, loaded)
	}
}

func TestLoadJSONRejectsBadInput(t *testing.T) {
	if _, err := LoadJSON([]byte("{")); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := LoadJSON([]byte(`{"gate":"XY"}`)); err == nil {
		t.Error("unknown gate should fail")
	}
	// Valid JSON, non-physical values (zero times) must fail validation.
	if _, err := LoadJSON([]byte(`{"gate":"FM"}`)); err == nil {
		t.Error("zero times should fail validation")
	}
	// A typo'd key must fail loudly, not leave the real field at zero.
	if _, err := LoadJSON([]byte(`{"gate":"FM","split_time_uss":80}`)); err == nil {
		t.Error("unknown key should fail")
	}
}

func TestLoadJSONKeyNames(t *testing.T) {
	data, err := json.Marshal(Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"split_time_us", "k1_quanta", "background_rate_per_s", "\"gate\":\"FM\""} {
		if !containsStr(string(data), key) {
			t.Errorf("JSON missing %q: %s", key, data)
		}
	}
}
