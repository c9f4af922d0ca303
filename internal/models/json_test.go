package models

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParamsJSON checks the params document decoder: no input panics, and
// any document LoadJSON accepts re-encodes and decodes to an equal Params
// with the same Hash.
func FuzzParamsJSON(f *testing.F) {
	def, err := json.Marshal(Default())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	f.Add(bytes.Replace(def, []byte(`"gate":"FM",`), nil, 1))
	f.Add(bytes.Replace(def, []byte(`{`), []byte(`{"bogus":1,`), 1))
	f.Add(bytes.ToUpper(def))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadJSON(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", p, err)
		}
		back, err := LoadJSON(out)
		if err != nil {
			t.Fatalf("decode re-encoded %s: %v", out, err)
		}
		if back != p || back.Hash() != p.Hash() {
			t.Fatalf("round trip changed the params:\n%+v\n%+v", p, back)
		}
	})
}
