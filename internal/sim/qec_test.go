package sim

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestResultQECWireFormat pins the two halves of the QEC wire contract:
// results without AttachQEC encode with no QEC keys at all (so the golden
// determinism grid is byte-identical to its pre-QEC encoding), and
// attached results expose code_distance, qec_rounds and
// logical_error_rate.
func TestResultQECWireFormat(t *testing.T) {
	r := &Result{Name: "QFT64", DeviceName: "L6", LogFidelity: -2,
		MSGates: 100, OneQGates: 50, Measurements: 10}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"code_distance", "qec_rounds", "logical_error_rate"} {
		if strings.Contains(string(raw), key) {
			t.Errorf("unattached result leaks %q: %s", key, raw)
		}
	}

	r.AttachQEC(9, 9)
	if r.CodeDistance != 9 || r.QECRounds != 9 {
		t.Errorf("AttachQEC: d=%d rounds=%d", r.CodeDistance, r.QECRounds)
	}
	if r.LogicalErrorRate <= 0 || r.LogicalErrorRate > 0.5 {
		t.Errorf("logical error rate %v outside (0, 0.5]", r.LogicalErrorRate)
	}
	raw, err = json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"code_distance", "qec_rounds", "logical_error_rate"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("attached result missing %q: %s", key, raw)
		}
	}
}

func TestPhysicalErrorRate(t *testing.T) {
	r := &Result{}
	if got := r.PhysicalErrorRate(); got != 0 {
		t.Errorf("zero ops: %v, want 0", got)
	}
	// 100 ops at log-fidelity −1: per-op error 1−e^{−0.01}.
	r = &Result{LogFidelity: -1, MSGates: 60, OneQGates: 30, Measurements: 10}
	got := r.PhysicalErrorRate()
	if got < 0.0099 || got > 0.01 {
		t.Errorf("PhysicalErrorRate = %v, want ≈0.00995", got)
	}
	// Perfect fidelity: zero error.
	r.LogFidelity = 0
	if got := r.PhysicalErrorRate(); got != 0 {
		t.Errorf("perfect fidelity: %v, want 0", got)
	}
}

func TestLogicalErrorRate(t *testing.T) {
	// Degenerate inputs produce 0.
	if got := logicalErrorRate(0, 3, 3); got != 0 {
		t.Errorf("pPhys=0: %v, want 0", got)
	}
	if got := logicalErrorRate(-1e-3, 3, 3); got != 0 {
		t.Errorf("pPhys<0: %v, want 0", got)
	}
	if got := logicalErrorRate(1e-3, 0, 3); got != 0 {
		t.Errorf("d=0: %v, want 0", got)
	}
	if got := logicalErrorRate(1e-3, 3, 0); got != 0 {
		t.Errorf("rounds=0: %v, want 0", got)
	}

	// Below threshold, higher distance strictly suppresses the rate.
	p := 1e-3
	prev := 1.0
	for _, d := range []int{3, 5, 7, 9} {
		got := logicalErrorRate(p, d, d)
		if got <= 0 || got >= prev {
			t.Errorf("d=%d: rate %v not in (0, %v)", d, got, prev)
		}
		prev = got
	}

	// More rounds means more exposure.
	if a, b := logicalErrorRate(p, 3, 3), logicalErrorRate(p, 3, 30); b <= a {
		t.Errorf("rounds 3 vs 30: %v vs %v, want increase", a, b)
	}

	// At or above threshold the per-round rate saturates: the total tends
	// to 1/2 with rounds but never exceeds it.
	if got := logicalErrorRate(0.5, 9, 9); got > 0.5 {
		t.Errorf("saturated rate %v > 0.5", got)
	}
	if lo, hi := logicalErrorRate(0.02, 3, 1), 0.5; lo > hi {
		t.Errorf("above-threshold single round %v > %v", lo, hi)
	}
}
