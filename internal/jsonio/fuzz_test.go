package jsonio

import (
	"bytes"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/chase"
	"repro/internal/instance"
	"repro/internal/paperex"
	"repro/internal/schema"
	"repro/internal/value"
)

// mixedArityDoc gives relation R two arities, which a schemaless decode
// rejects as Concrete.Insert does: a relation has one arity.
const mixedArityDoc = `{"facts":[{"rel":"R","args":["a"],"interval":"[0,1)"},{"rel":"R","args":["a","b"],"interval":"[0,2)"}]}`

// quirkDocs are documents at the edges of what referenceDecode accepts:
// encoding/json's field matching, duplicate keys and nulls, skipped
// values and the number grammar, escapes and invalid UTF-8, values that
// are not plain constants, and malformed or trailing input. They seed
// FuzzDecodeReader, whose seeds run with every go test.
var quirkDocs = []string{
	// Keys match exactly, then as bytes.EqualFold does: ſ folds to s,
	// but ı and İ fold to no ASCII letter.
	`{"facts":[{"REL":"R","Args":["a"],"INTERVAL":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","argſ":["a"],"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":["a"],"ınterval":"[1,2)","İnterval":"[3,4)"}]}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":"[1,2)","relſ":"x","re":"y","rell":"z"}]}`,
	// Top-level keys match exactly, after unquoting.
	`{"FACTS":[{"rel":"R"}],"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}]}`,
	`{"sch\u0065ma":[{"name":"R","attrs":["a"]}],"f\u0061cts":[{"r\u0065l":"R","args":["a"],"interval":"[1,2)"}]}`,
	// The last duplicate wins; null leaves a string as it was.
	`{"facts":[{"rel":"S","rel":"R","args":["a"],"args":["b","c"],"interval":"[3,4)","interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","rel":null,"args":["a"],"interval":"[1,2)","interval":null}]}`,
	// null args are no arguments; a null element keeps the backing
	// array's earlier value, past the earlier length too.
	`{"facts":[{"rel":"R","args":["a"],"args":null,"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":["a","b"],"args":[null],"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":["a","b","c"],"args":["x"],"args":["y",null,null],"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":["a","b"],"args":[],"args":[null],"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":["a",null],"interval":"[1,2)"}]}`,
	`{"facts":[null]}`,
	`{"facts":[{}]}`,
	`{"facts":[{"args":["a"],"interval":"[1,2)"}]}`,
	// "schema": null is no section; "facts": null is no facts.
	`{"schema":null,"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"E","args":["a","b"],"interval":"[1,2)"}],"schema":null}`,
	`{"schema":null,"schema":null,"facts":null}`,
	`{"schema":[{"name":"R","attrs":["a"]}],"facts":null}`,
	`{"schema":[],"facts":[]}`,
	`{"schema":[{"name":"E","attrs":["n","c"],"name":"E"}],"facts":[{"rel":"E","args":["a","b"],"interval":"[1,2)"}]}`,
	`{"schema":[{"name":"S","attrs":["n","s"]}],"facts":[{"rel":"E","args":["a","N2"],"interval":"[1,2)"},{"rel":"S","args":["a","N1^[3,9)"],"interval":"[3,9)"}]}`,
	// Unknown keys and fields are skipped but must be valid JSON.
	`{"v":{"a":[1,-0.5e+3,true,false,null,"s\n",{}],"b":[]},"facts":[{"rel":"R","x":[{"y":[0]}],"args":["a"],"interval":"[1,2)"}]}`,
	`{"v":01,"facts":[]}`,
	`{"v":1.,"facts":[]}`,
	`{"v":-,"facts":[]}`,
	`{"v":1e,"facts":[]}`,
	`{"v":[1,],"facts":[]}`,
	`{"v":{"a":1,},"facts":[]}`,
	`{"v":tru,"facts":[]}`,
	`{"v":"\x","facts":[]}`,
	`{"v":"\u12g4","facts":[]}`,
	"{\"v\":\"tab\there\",\"facts\":[]}",
	// Type errors reject.
	`{"facts":[{"rel":5,"args":["a"],"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":"a","interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":[["a"]],"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":["[1,2)"]}]}`,
	`{"facts":[5]}`,
	`{"facts":{}}`,
	`{"facts":"x"}`,
	// Escapes and invalid UTF-8 unquote exactly as encoding/json does.
	`{"facts":[{"rel":"R\n","args":["été","a\"b","😀","\ud800","a\/b"],"interval":"[1,2)"}]}`,
	"{\"facts\":[{\"rel\":\"R\",\"args\":[\"a\xff\",\"\xffa\",\"é\"],\"interval\":\"[1,2)\"}]}",
	"{\"facts\":[{\"rel\":\"R\xff\",\"args\":[\"a\"],\"interval\":\"[1,2)\"}]}",
	// Values that are not plain constants.
	`{"facts":[{"rel":"R","args":[" a ","a "," a","a ",""],"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":["N3^[5,9)","N3","N3@7","N","Nx","N3x","N3^x"],"interval":"[5,9)"}]}`,
	`{"facts":[{"rel":"R","args":["[1,2)"],"interval":"[1,2)"}]}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":"[01,+2)"}]}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":"[01,2)"}]}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":" [ 1 , inf ) "}]}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":"[1,∞)"},{"rel":"R","args":["a"],"interval":"[1,INF)"}]}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":"[2,1)"}]}`,
	mixedArityDoc,
	`{"facts":[{"rel":"R","args":["a"],"interval":"[1,2,3)"}]}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":"[18446744073709551615,inf)"}]}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":"[999999999999999999,1000000000000000000)"}]}`,
	// Malformed structure and trailing input.
	`{"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"},]}`,
	`{"facts":[],}`,
	`{,"facts":[]}`,
	`{"facts":[]]`,
	`{"facts" []}`,
	`{"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"} {"rel":"R"}]}`,
	`{"facts":[]} x`,
	`{"facts":[]}{}`,
	"{\"facts\":[]}\n\t ",
	" \r\n{}",
	`[]`,
	`null`,
	``,
}

// deepDocs nest skipped values at and just past encoding/json's depth
// cap, counted from a top-level value and from a fact.
func deepDocs() []string {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	fact := func(n int) string {
		return `{"facts":[{"rel":"R","x":` + nest(n) + `,"args":["a"],"interval":"[1,2)"}]}`
	}
	return []string{
		`{"v":` + nest(maxDepth) + `}`,
		`{"v":` + nest(maxDepth+1) + `}`,
		fact(maxDepth - 1),
		fact(maxDepth),
		`{"schema":` + nest(maxDepth) + `}`,
	}
}

// FuzzDecodeReader drives arbitrary bytes through the scanner that
// request bodies go through and through referenceDecode, with no
// expected schema and with Figure 4's. Both must reject the input, or
// both accept it and build the same instance: the same Encode bytes and
// the same interner, value for value. Decode, and DecodeReader fed one
// byte per Read (every token then straddles window refills), must agree
// with the schemaless DecodeReader, and an accepted document must
// survive Encode: the re-encoded bytes decode to an Equal instance.
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
	for _, doc := range quirkDocs {
		f.Add([]byte(doc))
	}
	for _, doc := range deepDocs() {
		f.Add([]byte(doc))
	}

	fig4 := paperex.Figure4().Schema()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, expect := range []*schema.Schema{nil, fig4} {
			checkAgainstReference(t, data, expect)
		}
		inst, err := DecodeReader(bytes.NewReader(data), nil)
		whole, werr := Decode(data)
		bytewise, berr := DecodeReader(iotest.OneByteReader(bytes.NewReader(data)), nil)
		if (werr == nil) != (err == nil) || (berr == nil) != (err == nil) {
			t.Fatalf("decoders disagree on acceptance\nDecodeReader: %v\nDecode: %v\none byte per Read: %v\ninput: %q", err, werr, berr, data)
		}
		if err != nil {
			return
		}
		sameInstance(t, data, whole, inst)
		sameInstance(t, data, bytewise, inst)
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

// checkAgainstReference decodes data with the scanner and with
// referenceDecode under expect: both reject it, or both build the same
// instance.
func checkAgainstReference(t *testing.T, data []byte, expect *schema.Schema) {
	t.Helper()
	got, err := DecodeReader(bytes.NewReader(data), expect)
	want, werr := referenceDecode(bytes.NewReader(data), expect)
	if (err == nil) != (werr == nil) {
		t.Fatalf("scanner and reference disagree on acceptance (expected schema: %v)\nscanner:   %v\nreference: %v\ninput: %q",
			expect != nil, err, werr, data)
	}
	if err == nil {
		sameInstance(t, data, got, want)
	}
}

// sameInstance requires got and want to encode to the same bytes and to
// hold the same interner: the same length and the same value behind
// every ID, which pins the order IDs were issued in.
func sameInstance(t *testing.T, input []byte, got, want *instance.Concrete) {
	t.Helper()
	genc, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	wenc, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(genc, wenc) {
		t.Fatalf("decoded instances differ\ninput: %q\ngot:\n%s\nwant:\n%s", input, genc, wenc)
	}
	gin, win := got.Interner(), want.Interner()
	if gin.Len() != win.Len() {
		t.Fatalf("interner lengths differ: %d, want %d\ninput: %q", gin.Len(), win.Len(), input)
	}
	for id := 0; id < gin.Len(); id++ {
		if g, w := gin.Resolve(value.ID(id)), win.Resolve(value.ID(id)); g != w {
			t.Fatalf("interner ID %d is %v, want %v\ninput: %q", id, g, w, input)
		}
	}
}
