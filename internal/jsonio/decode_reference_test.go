package jsonio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/schema"
	"repro/internal/value"
)

// factJSON is the wire form of one concrete fact, as referenceDecode
// reads it and legacyEncode writes it.
type factJSON struct {
	Rel      string   `json:"rel"`
	Args     []string `json:"args"`
	Interval string   `json:"interval"`
}

// referenceDecode is the encoding/json implementation of DecodeReader,
// kept here as the reference the scanner is fuzzed against: a
// json.Decoder walks the document token by token, decodes each fact into
// a factJSON of fresh strings, and inserts it through value.Parse,
// fact.NewC and Concrete.Insert. The scanner must accept exactly the
// documents this accepts and build the same instance, interner IDs
// included.
func referenceDecode(r io.Reader, expect *schema.Schema) (*instance.Concrete, error) {
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
			if rels == nil { // "schema": null, like "facts": null, is no section
				continue
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
