package jsonio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/schema"
)

func TestRoundTripSourceInstance(t *testing.T) {
	ic := paperex.Figure4()
	data, err := Encode(ic)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(ic) {
		t.Fatalf("round trip changed instance:\n%s\nvs\n%s", back, ic)
	}
	// The schema travels with the data: inserting a wrong-arity fact into
	// the decoded instance fails.
	if back.Schema() == nil || !back.Schema().Has("E") {
		t.Fatal("schema lost in round trip")
	}
	if !strings.Contains(string(data), `"interval": "[2012,2014)"`) {
		t.Fatalf("unexpected wire format:\n%s", data)
	}
}

func TestRoundTripSolutionWithNulls(t *testing.T) {
	jc, _, err := chase.Concrete(paperex.Figure4(), paperex.EmploymentMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(jc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(jc) {
		t.Fatalf("solution round trip changed:\n%s\nvs\n%s", back, jc)
	}
	if !strings.Contains(string(data), "N1^[2012,2013)") {
		t.Fatalf("annotated null not serialized:\n%s", data)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`{`, // syntax
		`{"facts":[{"rel":"R","args":["a"],"interval":"nope"}]}`,
		`{"facts":[{"rel":"R","args":["a"],"interval":"[5,2)"}]}`,
		`{"schema":[{"name":"","attrs":["a"]}],"facts":[]}`,
		`{"schema":[{"name":"R","attrs":["a"]}],"facts":[{"rel":"R","args":["a","b"],"interval":"[1,2)"}]}`, // arity
		`{"schema":[{"name":"R","attrs":["a"]}],"facts":[{"rel":"Zz","args":["a"],"interval":"[1,2)"}]}`,    // unknown rel
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c)); err == nil {
			t.Errorf("no error for %s", c)
		}
	}
}

func TestEmptyInstance(t *testing.T) {
	data, err := Encode(paperex.Figure4().Clone())
	if err != nil {
		t.Fatal(err)
	}
	_ = data
	empty, err := Decode([]byte(`{"facts":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 || empty.Schema() != nil {
		t.Fatal("empty decode wrong")
	}
}

// TestDecodeReaderMatchesDecode: the streaming decoder and the buffered
// one agree on Encode output, with and without an expected schema.
func TestDecodeReaderMatchesDecode(t *testing.T) {
	jc, _, err := chase.Concrete(paperex.Figure4(), paperex.EmploymentMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*instance.Concrete{paperex.Figure4(), jc} {
		data, err := Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		buffered, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := DecodeReader(bytes.NewReader(data), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !streamed.Equal(buffered) {
			t.Fatalf("streaming decode diverged:\n%s\nvs\n%s", streamed, buffered)
		}
		expected, err := DecodeReader(bytes.NewReader(data), src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if !expected.Equal(buffered) {
			t.Fatalf("schema-checked streaming decode diverged:\n%s\nvs\n%s", expected, buffered)
		}
		if src.Schema() != nil && expected.Schema() != src.Schema() {
			t.Fatal("expected schema not adopted")
		}
	}
}

// TestDecodeReaderSchemaValidation: an expected schema rejects facts and
// document-schema sections that contradict it.
func TestDecodeReaderSchemaValidation(t *testing.T) {
	sch := paperex.Figure4().Schema()
	if sch == nil {
		t.Fatal("figure 4 should carry a schema")
	}
	// Wrong arity fact against the expected schema.
	if _, err := DecodeReader(strings.NewReader(
		`{"facts":[{"rel":"E","args":["only-one"],"interval":"[1,2)"}]}`), sch); err == nil {
		t.Fatal("wrong-arity fact accepted")
	}
	// Unknown relation against the expected schema.
	if _, err := DecodeReader(strings.NewReader(
		`{"facts":[{"rel":"Nope","args":["a","b"],"interval":"[1,2)"}]}`), sch); err == nil {
		t.Fatal("unknown relation accepted")
	}
	// Document schema contradicting the expected one (arity mismatch).
	if _, err := DecodeReader(strings.NewReader(
		`{"schema":[{"name":"E","attrs":["just-one"]}],"facts":[]}`), sch); err == nil {
		t.Fatal("contradicting document schema accepted")
	}
	// Document schema naming a relation the expected schema lacks.
	if _, err := DecodeReader(strings.NewReader(
		`{"schema":[{"name":"Extra","attrs":["a"]}],"facts":[]}`), sch); err == nil {
		t.Fatal("extra document relation accepted")
	}
	// A consistent document schema passes the cross-check.
	if _, err := DecodeReader(strings.NewReader(
		`{"schema":[{"name":"E","attrs":["name","company"]}],"facts":[{"rel":"E","args":["a","b"],"interval":"[1,2)"}]}`), sch); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeReaderEdgeCases: unknown keys skip, schemaless governs-after
// ordering errors, and malformed streams fail cleanly.
func TestDecodeReaderEdgeCases(t *testing.T) {
	// Unknown keys are tolerated (forward compatibility).
	inst, err := DecodeReader(strings.NewReader(
		`{"version":7,"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}],"trailer":{"x":[1,2]}}`), nil)
	if err != nil || inst.Len() != 1 {
		t.Fatalf("unknown keys: %v, len=%d", err, inst.Len())
	}
	// Schemaless: a schema section after facts is an ordering error.
	if _, err := DecodeReader(strings.NewReader(
		`{"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}],"schema":[{"name":"R","attrs":["a"]}]}`), nil); err == nil {
		t.Fatal("schema-after-facts accepted schemaless")
	}
	// With an expected schema the same document is fine: the trailing
	// section is only cross-checked.
	sch, _ := schema.New()
	rel, err := schema.NewRelation("R", "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Add(rel); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReader(strings.NewReader(
		`{"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}],"schema":[{"name":"R","attrs":["a"]}]}`), sch); err != nil {
		t.Fatal(err)
	}
	// Top level must be an object.
	if _, err := DecodeReader(strings.NewReader(`[1,2]`), nil); err == nil {
		t.Fatal("non-object accepted")
	}
	// Truncated stream.
	if _, err := DecodeReader(strings.NewReader(`{"facts":[{"rel":"R"`), nil); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// "schema": null is no schema section, as "facts": null is no facts:
	// the facts insert schemaless instead of failing against an empty
	// schema.
	inst, err = DecodeReader(strings.NewReader(
		`{"schema":null,"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}]}`), nil)
	if err != nil {
		t.Fatalf("schema null: %v", err)
	}
	if inst.Len() != 1 || inst.Schema() != nil {
		t.Fatalf("schema null: len=%d schema=%v", inst.Len(), inst.Schema())
	}
	// Empty document decodes to an empty schemaless instance.
	empty, err := DecodeReader(strings.NewReader(`{}`), nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty doc: %v", err)
	}
}

// TestDecodeReaderRejectsTrailingData: the streaming decoder matches
// Decode's strictness — bytes after the document are an error, not a
// silent truncation to the first document.
func TestDecodeReaderRejectsTrailingData(t *testing.T) {
	doc := `{"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}]}`
	// A concatenated second document.
	if _, err := DecodeReader(strings.NewReader(doc+doc), nil); err == nil {
		t.Fatal("concatenated documents accepted")
	}
	// Trailing garbage.
	if _, err := DecodeReader(strings.NewReader(doc+" xyz"), nil); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Trailing whitespace is fine.
	if inst, err := DecodeReader(strings.NewReader(doc+"\n\t "), nil); err != nil || inst.Len() != 1 {
		t.Fatalf("trailing whitespace: %v", err)
	}
}

// TestDecodeReaderRejectsDuplicateSections: repeated top-level sections
// error instead of silently concatenating (facts) or being ignored
// (schema) — in a streaming decode last-wins cannot be honored.
func TestDecodeReaderRejectsDuplicateSections(t *testing.T) {
	if _, err := DecodeReader(strings.NewReader(
		`{"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}],"facts":[{"rel":"R","args":["b"],"interval":"[1,2)"}]}`), nil); err == nil {
		t.Fatal("duplicate facts sections accepted")
	}
	if _, err := DecodeReader(strings.NewReader(
		`{"schema":[{"name":"R","attrs":["a"]}],"schema":[{"name":"R","attrs":["a"]}],"facts":[]}`), nil); err == nil {
		t.Fatal("duplicate schema sections accepted")
	}
}
