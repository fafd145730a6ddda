// Package jsonio serializes concrete instances (and schemas) to and from
// JSON, for interchange with other tools. Values use the same textual
// syntax as the TDX language (constants verbatim, N7^[s,e) for
// interval-annotated nulls), so round trips are exact.
//
// Both directions stream. EncodeTo writes a solution straight out of the
// columnar store through one bounded chunk buffer (encode_stream.go).
// DecodeReader reads a source through a hand-rolled scanner for the fixed
// document grammar over one 64 KiB read window, and interns each fact's
// plain constants straight from its bytes into the store's columns
// (decode.go). Decode memory is one window plus one fact's scratch.
package jsonio

import (
	"bytes"
	"fmt"

	"repro/internal/instance"
	"repro/internal/schema"
)

// relJSON is the wire form of one schema relation. A document is an
// object with an optional "schema" array of these, in declaration order,
// then a "facts" array of facts, each an object with "rel", "args" and
// "interval".
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
