// Package jsonio serializes concrete instances (and schemas) to and from
// JSON, for interchange with other tools. Values use the same textual
// syntax as the TDX language (constants verbatim, N7^[s,e) for
// interval-annotated nulls), so round trips are exact.
package jsonio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/schema"
	"repro/internal/value"
)

// factJSON is the wire form of one concrete fact.
type factJSON struct {
	Rel      string   `json:"rel"`
	Args     []string `json:"args"`
	Interval string   `json:"interval"`
}

// relJSON is the wire form of one schema relation. A document is an
// object with an optional "schema" array of these, in declaration order,
// then a "facts" array of factJSON.
type relJSON struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
}

// Encode renders the instance as JSON. Facts appear in deterministic
// order. The schema is included when present. It is a buffering wrapper
// over EncodeTo, which streams the same bytes without materializing the
// fact set; callers holding an io.Writer should prefer EncodeTo.
func Encode(c *instance.Concrete) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(64 + 96*c.Len())
	if err := EncodeTo(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses an instance from JSON. When the document carries a
// schema, facts are validated against it; otherwise the instance is
// schemaless. Argument strings that parse as nulls or intervals become
// those values (the value syntax is injective for strings produced by
// Encode). It is DecodeReader over the bytes with no expected schema.
func Decode(data []byte) (*instance.Concrete, error) {
	return DecodeReader(bytes.NewReader(data), nil)
}

// DecodeReader decodes an instance from a JSON stream without
// materializing the document: the facts array is consumed one element at
// a time with a streaming json.Decoder and inserted as it is read, so a
// request body carrying millions of facts costs one fact of decode
// buffer, not one document. This is the path tdxd feeds request bodies
// through.
//
// When expect is non-nil the instance is built against it and every fact
// validates on insert; a schema section in the document is then only
// cross-checked (each declared relation must exist in expect with the
// same arity). When expect is nil the document's schema section governs,
// but it must precede the facts array in the stream (Encode always
// writes it first); a schema arriving after facts have begun is an error
// rather than a silent re-validation gap.
//
// Top-level keys match exactly ("facts", "schema"); any other key,
// including one differing only in case, is skipped. "facts": null, which
// Encode writes for an instance with no facts, reads as no facts.
func DecodeReader(r io.Reader, expect *schema.Schema) (*instance.Concrete, error) {
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return nil, err
	}
	var out *instance.Concrete
	// ensure creates the instance lazily: under an expected schema it can
	// exist before any key is seen; schemaless, creation waits for the
	// facts key so a preceding schema section can govern.
	ensure := func(sch *schema.Schema) *instance.Concrete {
		if out == nil {
			out = instance.NewConcrete(sch)
		}
		return out
	}
	if expect != nil {
		ensure(expect)
	}
	factsSeen := false
	schemaSeen := false
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("jsonio: %w", err)
		}
		key, _ := keyTok.(string)
		switch key {
		case "schema":
			// Duplicate sections are rejected rather than matched to
			// encoding/json's silent last-wins: in a streaming decode the
			// earlier section's facts are already inserted, so any merge
			// semantics would silently diverge from Decode.
			if schemaSeen {
				return nil, fmt.Errorf("jsonio: duplicate schema section")
			}
			schemaSeen = true
			var rels []relJSON
			if err := dec.Decode(&rels); err != nil {
				return nil, fmt.Errorf("jsonio: schema: %w", err)
			}
			if expect != nil {
				if err := checkSchema(rels, expect); err != nil {
					return nil, err
				}
				continue
			}
			if factsSeen {
				return nil, fmt.Errorf("jsonio: schema section after facts in a streaming decode; write the schema first (Encode does)")
			}
			sch, err := buildSchema(rels)
			if err != nil {
				return nil, err
			}
			ensure(sch)
		case "facts":
			if factsSeen {
				return nil, fmt.Errorf("jsonio: duplicate facts section")
			}
			factsSeen = true
			inst := ensure(nil)
			tok, err := dec.Token()
			if err != nil {
				return nil, fmt.Errorf("jsonio: %w", err)
			}
			if tok == nil { // "facts": null
				continue
			}
			if tok != json.Delim('[') {
				return nil, fmt.Errorf("jsonio: expected %q, found %v", "[", tok)
			}
			for i := 0; dec.More(); i++ {
				var fj factJSON
				if err := dec.Decode(&fj); err != nil {
					return nil, fmt.Errorf("jsonio: fact %d: %w", i, err)
				}
				if err := insertFact(inst, i, fj); err != nil {
					return nil, err
				}
			}
			if err := expectDelim(dec, ']'); err != nil {
				return nil, err
			}
		default:
			// Unknown keys are skipped, for forward compatibility.
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, fmt.Errorf("jsonio: %w", err)
			}
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return nil, err
	}
	// Reject trailing data, matching Decode (json.Unmarshal fails on it):
	// a concatenated second document or garbage after the closing brace
	// must error, not silently truncate the source to the first document.
	if tok, err := dec.Token(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("jsonio: after document: %w", err)
		}
		return nil, fmt.Errorf("jsonio: trailing data after document (%v)", tok)
	}
	return ensure(nil), nil
}

// expectDelim consumes one token and requires it to be the delimiter.
func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("jsonio: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("jsonio: expected %q, found %v", want.String(), tok)
	}
	return nil
}

// buildSchema constructs a schema from its wire form.
func buildSchema(rels []relJSON) (*schema.Schema, error) {
	sch, _ := schema.New()
	for _, r := range rels {
		rel, err := schema.NewRelation(r.Name, r.Attrs...)
		if err != nil {
			return nil, fmt.Errorf("jsonio: %w", err)
		}
		if err := sch.Add(rel); err != nil {
			return nil, fmt.Errorf("jsonio: %w", err)
		}
	}
	return sch, nil
}

// checkSchema cross-checks a document's schema section against the
// expected schema: every declared relation must exist with the same
// arity. (expect may declare more relations than the document uses.)
func checkSchema(rels []relJSON, expect *schema.Schema) error {
	for _, r := range rels {
		rel, ok := expect.Relation(r.Name)
		if !ok {
			return fmt.Errorf("jsonio: document schema declares %s, not in the expected schema", r.Name)
		}
		if len(rel.Attrs) != len(r.Attrs) {
			return fmt.Errorf("jsonio: document schema declares %s/%d, expected schema has arity %d", r.Name, len(r.Attrs), len(rel.Attrs))
		}
	}
	return nil
}

// insertFact parses one wire fact and inserts it, with positional error
// context.
func insertFact(out *instance.Concrete, i int, fj factJSON) error {
	iv, err := interval.Parse(fj.Interval)
	if err != nil {
		return fmt.Errorf("jsonio: fact %d: %w", i, err)
	}
	args := make([]value.Value, len(fj.Args))
	for j, s := range fj.Args {
		v, err := value.Parse(s)
		if err != nil {
			return fmt.Errorf("jsonio: fact %d arg %d: %w", i, j, err)
		}
		args[j] = v
	}
	if _, err := out.Insert(fact.NewC(fj.Rel, iv, args...)); err != nil {
		return fmt.Errorf("jsonio: fact %d: %w", i, err)
	}
	return nil
}
