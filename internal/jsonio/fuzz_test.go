package jsonio

import (
	"bytes"
	"testing"

	"repro/internal/chase"
	"repro/internal/instance"
	"repro/internal/paperex"
)

// FuzzDecodeReader drives arbitrary bytes through the streaming decoder
// that request bodies go through. It must never panic, and every
// document it accepts must survive Encode: the re-encoded bytes decode
// to an Equal instance.
func FuzzDecodeReader(f *testing.F) {
	jc, _, err := chase.Concrete(paperex.Figure4(), paperex.EmploymentMapping(), nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []*instance.Concrete{paperex.Figure4(), jc} {
		data, err := Encode(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A schema with no facts, which Encode writes back as "facts": null.
	f.Add([]byte(`{"schema":[{"name":"R","attrs":["a"]}],"facts":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := DecodeReader(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		enc, err := Encode(inst)
		if err != nil {
			t.Fatalf("Encode of an accepted document: %v\ninput: %q", err, data)
		}
		back, err := DecodeReader(bytes.NewReader(enc), nil)
		if err != nil {
			t.Fatalf("re-encoded document does not decode: %v\ninput: %q\nencoded:\n%s", err, data, enc)
		}
		if !back.Equal(inst) {
			t.Fatalf("round trip changed the instance\ninput: %q\ngot:\n%s\nwant:\n%s", data, back, inst)
		}
	})
}
