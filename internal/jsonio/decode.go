package jsonio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/schema"
	"repro/internal/value"
)

// The decoder reads the TDX document grammar with a hand-rolled scanner
// over a fixed read window. Each fact's string fields are copied out of
// the window into one fact's scratch; a plain constant is then interned
// straight from those bytes (value.Interner.InternConstBytes, which
// allocates only for a constant it has not seen) and the row goes into
// the store as IDs (storage.Store.InsertIDs), so a fact of plain
// constants allocates nothing beyond its new constants. Values that are
// not plain — a null, an interval, an escaped or padded string — go
// through value.Parse. Skipped values are checked as they stream past,
// without being kept. Decode memory is one window plus one fact's
// scratch, whatever the document's size.
//
// The scanner must accept exactly the documents referenceDecode (an
// encoding/json token loop, in decode_reference_test.go) accepts, and
// build the same instance with the same interner IDs; FuzzDecodeReader
// compares the two.

// readWindow is the size of the read buffer: the most of the document
// the decoder holds at once.
const readWindow = 64 << 10

// maxDepth is encoding/json's nesting cap. The reference decoded one
// fact, one skipped top-level value or the schema section at a time, so
// the cap counts containers from the start of each.
const maxDepth = 10000

// span locates a string's contents in the fact scratch. esc marks
// contents that are not the string itself — they hold an escape or
// invalid UTF-8 — and must be unquoted. The zero span is "".
type span struct {
	off, end int
	esc      bool
}

// The fields of a fact object.
const (
	fieldUnknown = iota
	fieldRel
	fieldArgs
	fieldInterval
)

// fieldNames are the fact fields' JSON names.
var fieldNames = [...][]byte{fieldRel: []byte("rel"), fieldArgs: []byte("args"), fieldInterval: []byte("interval")}

type decoder struct {
	r        io.Reader
	buf      []byte // the read window; buf[pos:end] is unread
	pos, end int
	err      error // why input ended: io.EOF or the read error
	read     int64 // bytes consumed before buf[0], for error offsets

	capture []byte // the schema section's bytes, while capFrom >= 0
	capFrom int    // where the uncaptured part starts in buf, or -1

	inst *instance.Concrete
	in   *value.Interner
	rels map[string]string // relation names, allocated once per decode

	// One fact's scratch, reused from fact to fact.
	raw     []byte // the contents of the fact's strings
	key     []byte // the contents of the current key
	rel, iv span
	args    []span // every position an args array set since the last reset
	nargs   int    // the fact's argument count
	ids     []value.ID
	stack   []byte // the closing brackets of a skipped value's open containers
}

// Decode parses an instance from JSON. When the document carries a
// schema, facts are validated against it; otherwise the instance is
// schemaless. Argument strings that parse as nulls or intervals become
// those values (the value syntax is injective for strings produced by
// Encode). It is DecodeReader over data with no expected schema, with
// data itself as the read window.
func Decode(data []byte) (*instance.Concrete, error) {
	d := newDecoder(nil)
	d.buf, d.end, d.err = data, len(data), io.EOF
	return d.document(nil)
}

// DecodeReader decodes an instance from a JSON stream without
// materializing the document. A hand-rolled scanner reads r through a
// fixed 64 KiB window and inserts each fact as soon as its closing brace
// is read, interning plain constants straight from the fact's bytes, so
// a request body carrying millions of facts costs one window plus one
// fact of decode memory. This is the path tdxd feeds request bodies
// through. A read error comes back wrapped.
//
// When expect is non-nil the instance is built against it and every fact
// validates on insert; a schema section in the document is then only
// cross-checked (each declared relation must exist in expect with the
// same arity). When expect is nil the document's schema section governs,
// but it must precede the facts array in the stream (Encode always
// writes it first); a schema arriving after facts have begun is an error
// rather than a silent re-validation gap. "schema": null is no schema
// section, and "facts": null, which Encode writes for an instance with
// no facts, is no facts.
//
// Top-level keys match exactly ("facts", "schema"); any other key,
// including one differing only in case, is skipped. Within a fact, keys
// match rel, args and interval as encoding/json matches struct fields:
// exactly, then case-insensitively, the last duplicate winning.
func DecodeReader(r io.Reader, expect *schema.Schema) (*instance.Concrete, error) {
	d := newDecoder(r)
	d.buf = make([]byte, readWindow)
	return d.document(expect)
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: r, capFrom: -1, rels: make(map[string]string)}
}

// document consumes the whole input: one object, then only whitespace.
func (d *decoder) document(expect *schema.Schema) (*instance.Concrete, error) {
	more, err := d.open('{', '}')
	if err != nil {
		return nil, fmt.Errorf("jsonio: %w", err)
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
	for more {
		key, err := d.readKey()
		if err != nil {
			return nil, fmt.Errorf("jsonio: %w", err)
		}
		switch string(key) {
		case "schema":
			// Duplicate sections are rejected rather than matched to
			// encoding/json's silent last-wins: in a streaming decode
			// the earlier section's facts are already inserted.
			if schemaSeen {
				return nil, errors.New("jsonio: duplicate schema section")
			}
			schemaSeen = true
			rels, err := d.schemaSection()
			if err != nil {
				return nil, fmt.Errorf("jsonio: schema: %w", err)
			}
			if rels == nil { // "schema": null
				break
			}
			if expect != nil {
				if err := checkSchema(rels, expect); err != nil {
					return nil, err
				}
				break
			}
			if factsSeen {
				return nil, errors.New("jsonio: schema section after facts in a streaming decode; write the schema first (Encode does)")
			}
			sch, err := buildSchema(rels)
			if err != nil {
				return nil, err
			}
			ensure(sch)
		case "facts":
			if factsSeen {
				return nil, errors.New("jsonio: duplicate facts section")
			}
			factsSeen = true
			d.inst = ensure(nil)
			d.in = d.inst.Interner()
			if err := d.facts(); err != nil {
				return nil, err
			}
		default:
			// Unknown keys are skipped, for forward compatibility.
			if err := d.skip(0); err != nil {
				return nil, fmt.Errorf("jsonio: %w", err)
			}
		}
		if more, err = d.next('}'); err != nil {
			return nil, fmt.Errorf("jsonio: %w", err)
		}
	}
	// Reject trailing data, as json.Unmarshal does: a concatenated second
	// document or garbage after the closing brace must error, not
	// silently truncate the source to the first document.
	if _, ok := d.peek(); ok {
		return nil, fmt.Errorf("jsonio: trailing data after document: %w", d.syntaxErr("end of input"))
	}
	if d.err != io.EOF {
		return nil, fmt.Errorf("jsonio: after document: %w", d.err)
	}
	return ensure(nil), nil
}

// schemaSection captures the schema section's bytes while skip checks
// them, then decodes them with encoding/json: the section is small and
// read once.
func (d *decoder) schemaSection() ([]relJSON, error) {
	if _, ok := d.peek(); !ok {
		return nil, d.syntaxErr("value")
	}
	d.capture, d.capFrom = d.capture[:0], d.pos
	err := d.skip(0)
	if err == nil {
		d.capture = append(d.capture, d.buf[d.capFrom:d.pos]...)
	}
	d.capFrom = -1
	if err != nil {
		return nil, err
	}
	var rels []relJSON
	if err := json.Unmarshal(d.capture, &rels); err != nil {
		return nil, err
	}
	return rels, nil
}

// facts consumes the facts section, null or an array of facts, inserting
// each fact as soon as it is read.
func (d *decoder) facts() error {
	more := false
	null, err := d.null()
	if err == nil && !null {
		more, err = d.open('[', ']')
	}
	if err != nil {
		return fmt.Errorf("jsonio: facts: %w", err)
	}
	for i := 0; more; i++ {
		if err := d.readFact(); err != nil {
			return fmt.Errorf("jsonio: fact %d: %w", i, err)
		}
		if err := d.insert(i); err != nil {
			return err
		}
		if more, err = d.next(']'); err != nil {
			return fmt.Errorf("jsonio: after fact %d: %w", i, err)
		}
	}
	return nil
}

// readFact consumes one fact into the fact scratch, with encoding/json's
// rules for decoding an object into a struct: a key selects a field
// exactly or under case folding, the last duplicate wins, null leaves a
// string field as it was, and unknown keys are skipped. A null fact is
// the empty fact, which fails on its empty interval.
func (d *decoder) readFact() error {
	d.raw, d.rel, d.iv, d.args, d.nargs = d.raw[:0], span{}, span{}, d.args[:0], 0
	if null, err := d.null(); null || err != nil {
		return err
	}
	more, err := d.open('{', '}')
	for more && err == nil {
		var key []byte
		if key, err = d.readKey(); err != nil {
			return err
		}
		switch fieldOf(key) {
		case fieldRel:
			err = d.stringField(&d.rel)
		case fieldInterval:
			err = d.stringField(&d.iv)
		case fieldArgs:
			err = d.argsField()
		default:
			err = d.skip(1)
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// fieldOf names the fact field key selects. encoding/json matches a key
// to a struct field exactly, then as bytes.EqualFold does, so "REL" and
// "argſ" match too.
func fieldOf(key []byte) int {
	switch string(key) {
	case "rel":
		return fieldRel
	case "args":
		return fieldArgs
	case "interval":
		return fieldInterval
	}
	for f := fieldRel; f <= fieldInterval; f++ {
		if bytes.EqualFold(key, fieldNames[f]) {
			return f
		}
	}
	return fieldUnknown
}

// stringField reads a field decoded into a string: a string sets it,
// null leaves it as it was, and any other value is a type error.
func (d *decoder) stringField(f *span) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if err := d.expect('"'); err != nil {
		return err
	}
	return d.readString(f)
}

// argsField reads the args field the way encoding/json decodes an array
// into a []string that holds the field's earlier value: element i
// overwrites position i, a null element leaves it as the backing array
// holds it (past the earlier length too, or "" if never set), and the
// slice ends at the array's length. null and [] empty it for good.
func (d *decoder) argsField() error {
	if null, err := d.null(); null || err != nil {
		d.args, d.nargs = d.args[:0], 0
		return err
	}
	more, err := d.open('[', ']')
	n := 0
	for ; more && err == nil; n++ {
		if n == len(d.args) {
			d.args = append(d.args, span{})
		}
		var null bool
		if null, err = d.null(); err == nil && !null {
			if err = d.expect('"'); err == nil {
				err = d.readString(&d.args[n])
			}
		}
		if err == nil {
			more, err = d.next(']')
		}
	}
	if n == 0 {
		d.args = d.args[:0]
	}
	d.nargs = n
	return err
}

// readString consumes a string into the fact scratch and points f at it.
func (d *decoder) readString(f *span) error {
	off := len(d.raw)
	var plain bool
	var err error
	d.raw, plain, err = d.str(d.raw, true)
	*f = span{off: off, end: len(d.raw), esc: !plain}
	return err
}

// insert adds the fact in the scratch to the instance, with the checks
// and the interner IDs of Concrete.Insert over value.Parse: arguments
// left to right, then the interval. A plain constant is interned from
// its bytes; every other argument goes through value.Parse.
func (d *decoder) insert(i int) error {
	iv, err := d.interval()
	if err != nil {
		return fmt.Errorf("jsonio: fact %d: %w", i, err)
	}
	rel := d.relName()
	ids := d.ids[:0]
	for j, a := range d.args[:d.nargs] {
		if b := d.raw[a.off:a.end]; !a.esc && plainConst(b) {
			ids = append(ids, d.in.InternConstBytes(b))
			continue
		}
		v, err := value.Parse(d.text(a))
		if err != nil {
			return fmt.Errorf("jsonio: fact %d arg %d: %w", i, j, err)
		}
		if v.Kind() == value.IntervalVal {
			return fmt.Errorf("jsonio: fact %d arg %d: %v is an interval; intervals may only appear as the temporal attribute", i, j, v)
		}
		ids = append(ids, d.in.Intern(v.WithAnnotation(iv)))
	}
	if err := d.inst.CheckRel(rel, d.nargs); err != nil {
		return fmt.Errorf("jsonio: fact %d: %w", i, err)
	}
	d.ids = append(ids, d.in.Intern(value.NewInterval(iv)))
	d.inst.Store().InsertIDs(rel, d.ids)
	return nil
}

// plainConst reports whether value.Parse reads b as the constant b: b
// is not empty, holds nothing strings.TrimSpace could trim at either end
// (a space, or a non-ASCII byte that may start or end a Unicode space),
// and reads as neither an interval ('[') nor a null ('N' then a digit).
func plainConst(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	first, last := b[0], b[len(b)-1]
	if first == ' ' || last == ' ' || first >= utf8.RuneSelf || last >= utf8.RuneSelf || first == '[' {
		return false
	}
	return first != 'N' || len(b) == 1 || b[1] < '0' || b[1] > '9'
}

// interval parses the fact's interval, in place for the [s,e) form with
// decimal or inf endpoints and through interval.Parse for every other
// spelling and every error.
func (d *decoder) interval() (interval.Interval, error) {
	if b := d.raw[d.iv.off:d.iv.end]; !d.iv.esc && len(b) >= 5 && b[0] == '[' && b[len(b)-1] == ')' {
		if c := bytes.IndexByte(b, ','); c > 0 {
			s, ok := timePoint(b[1:c])
			e, ok2 := timePoint(b[c+1 : len(b)-1])
			if ok && ok2 {
				return interval.New(s, e)
			}
		}
	}
	return interval.Parse(d.text(d.iv))
}

// timePoint reads "inf" or 1 to 18 decimal digits, which can neither
// overflow nor reach the value reserved for infinity.
func timePoint(b []byte) (interval.Time, bool) {
	if string(b) == "inf" {
		return interval.Infinity, true
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var t interval.Time
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		t = t*10 + interval.Time(c-'0')
	}
	return t, true
}

// relName returns the fact's relation name, allocating each distinct
// plain name once per decode.
func (d *decoder) relName() string {
	if d.rel.esc {
		return d.text(d.rel)
	}
	b := d.raw[d.rel.off:d.rel.end]
	if name, ok := d.rels[string(b)]; ok {
		return name
	}
	name := string(b)
	d.rels[name] = name
	return name
}

// text returns the string a span holds.
func (d *decoder) text(s span) string {
	b := d.raw[s.off:s.end]
	if !s.esc {
		return string(b)
	}
	return unquote(b)
}

// unquote decodes string contents that hold an escape or invalid UTF-8
// through encoding/json itself, so escapes, surrogate pairs and the
// U+FFFD replacement stay exactly the reference's. str has checked the
// contents against the string grammar, so decoding cannot fail.
func unquote(contents []byte) string {
	q := make([]byte, 0, len(contents)+2)
	q = append(append(append(q, '"'), contents...), '"')
	var s string
	if err := json.Unmarshal(q, &s); err != nil {
		panic("jsonio: checked string failed to unquote: " + err.Error())
	}
	return s
}

// readKey consumes an object key and its colon, returning the key's
// string: the key scratch itself when it is plain, unquoted otherwise.
func (d *decoder) readKey() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	var plain bool
	var err error
	if d.key, plain, err = d.str(d.key[:0], true); err != nil {
		return nil, err
	}
	key := d.key
	if !plain {
		key = []byte(unquote(key))
	}
	if err := d.expect(':'); err != nil {
		return nil, err
	}
	return key, nil
}

// skipKey consumes an object key and its colon without keeping the key.
func (d *decoder) skipKey() error {
	if err := d.expect('"'); err != nil {
		return err
	}
	if _, _, err := d.str(nil, false); err != nil {
		return err
	}
	return d.expect(':')
}

// skip consumes one value, checking it against the JSON grammar without
// keeping it. depth counts the containers already open around the value
// within what the reference decoded as one value. An explicit stack of
// closing brackets replaces recursion, so adversarial nesting cannot
// exhaust the goroutine stack.
func (d *decoder) skip(depth int) error {
	stack := d.stack[:0]
	defer func() { d.stack = stack[:0] }()
	for {
		// A value: a scalar, or a container's opening and first key.
		c, ok := d.peek()
		var err error
		switch {
		case ok && (c == '{' || c == '['):
			if depth+len(stack) >= maxDepth {
				return fmt.Errorf("exceeded max nesting depth %d", maxDepth)
			}
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			more, err := d.open(c, closer)
			if err != nil {
				return err
			}
			if more {
				stack = append(stack, closer)
				if closer == '}' {
					err = d.skipKey()
				}
				if err != nil {
					return err
				}
				continue
			}
		case ok && c == '"':
			d.pos++
			_, _, err = d.str(nil, false)
		case ok && c == 't':
			err = d.literal("true")
		case ok && c == 'f':
			err = d.literal("false")
		case ok && c == 'n':
			err = d.literal("null")
		case ok && (c == '-' || c >= '0' && c <= '9'):
			err = d.number()
		default:
			err = d.syntaxErr("a value")
		}
		if err != nil {
			return err
		}
		// The value is complete: close containers until one has another
		// member, whose key comes next in an object.
		for {
			if len(stack) == 0 {
				return nil
			}
			more, err := d.next(stack[len(stack)-1])
			if err != nil {
				return err
			}
			if more {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if stack[len(stack)-1] == '}' {
			if err := d.skipKey(); err != nil {
				return err
			}
		}
	}
}

// str consumes a string's contents and closing quote, its opening quote
// already consumed, checking them against the JSON grammar. With keep it
// appends the contents, as they stand, to dst and reports whether they
// are plain: free of escapes and valid UTF-8, and so the string itself.
func (d *decoder) str(dst []byte, keep bool) ([]byte, bool, error) {
	start := len(dst)
	plain, ascii := true, true
	for {
		if d.pos == d.end && !d.fill() {
			return dst, false, d.syntaxErr("the end of the string")
		}
		i := d.pos
		for ; i < d.end; i++ {
			c := d.buf[i]
			if c == '"' || c == '\\' || c < 0x20 {
				break
			}
			if c >= utf8.RuneSelf {
				ascii = false
			}
		}
		if keep {
			dst = append(dst, d.buf[d.pos:i]...)
		}
		d.pos = i
		if i == d.end {
			continue
		}
		switch c := d.buf[i]; {
		case c == '"':
			d.pos++
			if keep && plain && !ascii {
				plain = utf8.Valid(dst[start:])
			}
			return dst, plain, nil
		case c < 0x20:
			return dst, false, d.syntaxErr("a string character")
		}
		// A backslash escape, kept as it stands for unquote.
		plain = false
		d.pos++
		c, ok := d.at()
		n := 0
		switch {
		case ok && c == 'u':
			n = 4
		case !ok || strings.IndexByte(`"\/bfnrt`, c) < 0:
			return dst, false, d.syntaxErr("an escape character")
		}
		if keep {
			dst = append(dst, '\\', c)
		}
		d.pos++
		for ; n > 0; n-- {
			c, ok := d.at()
			if !ok || !isHex(c) {
				return dst, false, d.syntaxErr("a hexadecimal digit")
			}
			if keep {
				dst = append(dst, c)
			}
			d.pos++
		}
	}
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// literal consumes the literal word, true, false or null.
func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if c, ok := d.at(); !ok || c != word[i] {
			return d.syntaxErr("literal " + word)
		}
		d.pos++
	}
	return nil
}

// number consumes a number, checking it against the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	if c, _ := d.at(); c == '-' {
		d.pos++
	}
	c, ok := d.at()
	switch {
	case ok && c == '0':
		d.pos++
	case ok && c >= '1' && c <= '9':
		d.digits()
	default:
		return d.syntaxErr("a digit")
	}
	if c, ok := d.at(); ok && c == '.' {
		d.pos++
		if d.digits() == 0 {
			return d.syntaxErr("a digit after the decimal point")
		}
	}
	if c, ok := d.at(); ok && (c == 'e' || c == 'E') {
		d.pos++
		if c, ok := d.at(); ok && (c == '+' || c == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			return d.syntaxErr("a digit in the exponent")
		}
	}
	return nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	n := 0
	for {
		c, ok := d.at()
		if !ok || c < '0' || c > '9' {
			return n
		}
		d.pos++
		n++
	}
}

// open consumes a container's opening bracket, and its closer too when
// the container is empty; more reports that members follow.
func (d *decoder) open(opener, closer byte) (more bool, err error) {
	if err := d.expect(opener); err != nil {
		return false, err
	}
	if c, ok := d.peek(); ok && c == closer {
		d.pos++
		return false, nil
	}
	return true, nil
}

// next consumes what follows a member of the container closer ends: a
// comma, when more reports another member, or the closer.
func (d *decoder) next(closer byte) (more bool, err error) {
	if c, ok := d.peek(); ok && (c == ',' || c == closer) {
		d.pos++
		return c == ',', nil
	}
	return false, d.syntaxErr("',' or '" + string(closer) + "'")
}

// null consumes a null if one comes next and reports whether it did.
func (d *decoder) null() (bool, error) {
	if c, ok := d.peek(); !ok || c != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// expect skips whitespace and consumes the byte c.
func (d *decoder) expect(c byte) error {
	if b, ok := d.peek(); !ok || b != c {
		return d.syntaxErr(strconv.QuoteRune(rune(c)))
	}
	d.pos++
	return nil
}

// peek skips whitespace and returns the next byte without consuming it;
// ok is false when input has ended.
func (d *decoder) peek() (byte, bool) {
	for {
		for ; d.pos < d.end; d.pos++ {
			if c := d.buf[d.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
				return c, true
			}
		}
		if !d.fill() {
			return 0, false
		}
	}
}

// at returns the next byte without consuming it or skipping whitespace;
// ok is false when input has ended.
func (d *decoder) at() (byte, bool) {
	if d.pos == d.end && !d.fill() {
		return 0, false
	}
	return d.buf[d.pos], true
}

// fill refills the used-up window from the reader, first saving the
// window's part of a schema section being captured. It reports false
// when input has ended; d.err then says why.
func (d *decoder) fill() bool {
	if d.err != nil {
		return false
	}
	if d.capFrom >= 0 {
		d.capture = append(d.capture, d.buf[d.capFrom:d.end]...)
		d.capFrom = 0
	}
	d.read += int64(d.end)
	d.pos, d.end = 0, 0
	for range 100 {
		n, err := d.r.Read(d.buf)
		d.end, d.err = n, err
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
	d.err = io.ErrNoProgress
	return false
}

// syntaxErr reports what the scanner expected and what it found instead:
// the byte at the read position, or the end of input — a wrapped
// io.ErrUnexpectedEOF, or the read error that ended it.
func (d *decoder) syntaxErr(want string) error {
	if d.pos < d.end {
		return fmt.Errorf("invalid character %q at offset %d, want %s", d.buf[d.pos], d.read+int64(d.pos), want)
	}
	if d.err == io.EOF {
		return fmt.Errorf("want %s: %w", want, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("want %s: %w", want, d.err)
}
