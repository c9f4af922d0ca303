package models

import (
	"reflect"
	"testing"
)

func TestHashDeterministic(t *testing.T) {
	a, b := Default(), Default()
	if a.Hash() != b.Hash() {
		t.Error("equal params must hash equally")
	}
	if len(a.Hash()) != 64 {
		t.Errorf("hash length = %d, want 64 hex chars", len(a.Hash()))
	}
}

// TestHashSensitiveToEveryField bumps each Params field in turn via
// reflection and requires the hash to change, so a newly added field that
// is forgotten in AppendCanonical fails this test.
func TestHashSensitiveToEveryField(t *testing.T) {
	base := Default()
	baseHash := base.Hash()
	rv := reflect.ValueOf(&base).Elem()
	for i := 0; i < rv.NumField(); i++ {
		p := Default()
		f := reflect.ValueOf(&p).Elem().Field(i)
		name := rv.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint8: // GateImpl
			f.SetUint((f.Uint() + 1) % 4)
		default:
			t.Fatalf("unhandled field kind %s for %s", f.Kind(), name)
		}
		if p.Hash() == baseHash {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

func TestCanonDistinguishesFieldBoundaries(t *testing.T) {
	var a, b Canon
	a.Str("ab", "c")
	b.Str("a", "bc")
	if a.Sum() == b.Sum() {
		t.Error("field name/value boundaries must be unambiguous")
	}
	var c, d Canon
	c.Int("n", 1)
	c.Int("m", 2)
	d.Int("n", 12)
	if c.Sum() == d.Sum() {
		t.Error("field sequences must be unambiguous")
	}
}

// TestDefaultHashPinned pins the content hash of the default calibration.
// Every disk cache written so far is keyed under it, so a change to field
// order, names or encoding must fail here rather than silently orphan
// those caches.
func TestDefaultHashPinned(t *testing.T) {
	const want = "db217820a3d7b12e16b4394e29744501a2d809a3070afb84b09a6b3db7c6932d"
	if got := Default().Hash(); got != want {
		t.Errorf("Default().Hash() = %s, want %s", got, want)
	}
}
