package jsonio

import (
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/storage"
	"repro/internal/value"
)

// The streaming encoder walks the columnar store directly — per-relation
// live-row collection off the validity bitmap (storage.Rel.AppendLive), a
// row sort that compares interned IDs and resolves only the positions
// where two rows differ (a relation has one arity, which
// instance.Concrete.CheckRel enforces, so rows compare position by
// position), each row decoded from its columns into one reused tuple
// buffer, a reused scratch buffer for value rendering — and writes the
// document in bounded chunks.
// It materializes neither the []fact.CFact of Facts() nor a []factJSON
// mirror nor a MarshalIndent staging buffer, so encoding an n-fact
// solution costs O(1) allocations per fact and never holds more than one
// flush chunk of output. Output is byte-identical to what
// json.MarshalIndent produced over the legacy wire structs (EncodeTo) and
// to json.Compact of that document (EncodeCompactTo); the identity is
// locked down by randomized tests against a reference implementation.

// flushChunk is the scratch-buffer high-water mark: the encoder hands the
// buffer to the writer whenever a fact completes past this size, so peak
// encoder memory is one chunk regardless of solution size.
const flushChunk = 32 << 10

// EncodeTo streams the instance's TDX JSON document to w, byte-identical
// to Encode's output, without materializing the fact set or the document:
// facts are read straight out of the columnar store in deterministic
// order (relations lexicographic, rows sorted like fact.CompareC) and
// rendered through a reused scratch buffer flushed in bounded chunks.
// This is the write path for solutions too large to buffer; Encode is a
// thin wrapper over it.
func EncodeTo(w io.Writer, c *instance.Concrete) error {
	return encodeStream(w, c, true)
}

// EncodeCompactTo streams the compact (whitespace-free) form of the
// instance's TDX JSON document to w — byte-identical to running Encode's
// output through json.Compact, which is exactly the form an embedded
// json.RawMessage took on the tdxd wire. Serving layers frame response
// envelopes around this writer so a solution document is encoded once,
// straight to the socket.
func EncodeCompactTo(w io.Writer, c *instance.Concrete) error {
	return encodeStream(w, c, false)
}

// streamEncoder accumulates output in a reused scratch buffer, flushing
// whole chunks to the writer. Errors are sticky: after a failed flush the
// encoder goes quiet and the first error is reported.
type streamEncoder struct {
	w      io.Writer
	buf    []byte
	tup    []value.Value // the row being rendered, reused across rows
	err    error
	indent bool
}

func encodeStream(w io.Writer, c *instance.Concrete, indent bool) error {
	e := &streamEncoder{w: w, buf: make([]byte, 0, flushChunk+1024), indent: indent}
	e.buf = append(e.buf, '{')
	if sch := c.Schema(); sch != nil && sch.Len() > 0 {
		e.key(1, "schema")
		e.buf = append(e.buf, '[')
		for i, name := range sch.Names() {
			r, _ := sch.Relation(name)
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.nl(2)
			e.buf = append(e.buf, '{')
			e.key(3, "name")
			e.str(r.Name)
			e.buf = append(e.buf, ',')
			e.key(3, "attrs")
			e.strs(3, r.Attrs)
			e.nl(2)
			e.buf = append(e.buf, '}')
		}
		e.nl(1)
		e.buf = append(e.buf, ']', ',')
	}
	e.key(1, "facts")
	if c.Len() == 0 {
		// The legacy encoder marshaled a nil slice here; keep its rendering.
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		st := c.Store()
		first := true
		var rows []int
		for _, relName := range st.Relations() {
			r := st.Rel(relName)
			// Global fact order is fact.CompareC: relation name first, so
			// sorted relation names + per-relation row sort reproduce it
			// without a cross-relation merge.
			rows = r.AppendLive(rows[:0])
			slices.SortFunc(rows, func(a, b int) int { return rowCompare(r, a, b) })
			for _, row := range rows {
				if !first {
					e.buf = append(e.buf, ',')
				}
				first = false
				e.fact(relName, r, row)
				if len(e.buf) >= flushChunk {
					e.flush()
				}
			}
		}
		e.nl(1)
		e.buf = append(e.buf, ']')
	}
	e.nl(0)
	e.buf = append(e.buf, '}')
	e.flush()
	return e.err
}

// rowCompare orders two rows of one relation exactly as fact.CompareC
// orders their decoded facts: data arguments position-wise, then the
// trailing interval. The rows have the relation's one arity, so no arity
// tie-break is needed, and on the interval tail value.Compare is exactly
// interval.Compare. Equal IDs are equal values, so only a position where
// the IDs differ is resolved.
func rowCompare(r *storage.Rel, a, b int) int {
	for _, col := range r.Cols() {
		if ia, ib := col[a], col[b]; ia != ib {
			in := r.Interner()
			return value.Compare(in.Resolve(ia), in.Resolve(ib))
		}
	}
	return 0
}

// fact renders one stored row as a wire fact object.
func (e *streamEncoder) fact(rel string, r *storage.Rel, row int) {
	e.tup = r.AppendTuple(e.tup[:0], row)
	tup := e.tup
	n := len(tup) - 1
	if tup[n].Kind() != value.IntervalVal {
		// Mirror the legacy path's corruption panic (FromTuple).
		instance.FromTuple(rel, tup)
	}
	e.nl(2)
	e.buf = append(e.buf, '{')
	e.key(3, "rel")
	e.str(rel)
	e.buf = append(e.buf, ',')
	e.key(3, "args")
	if n == 0 {
		// The legacy encoder built a non-nil empty []string here.
		e.buf = append(e.buf, '[', ']')
	} else {
		e.buf = append(e.buf, '[')
		for i := 0; i < n; i++ {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.nl(4)
			e.value(tup[i])
		}
		e.nl(3)
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, ',')
	e.key(3, "interval")
	iv, _ := tup[n].Interval()
	e.buf = append(e.buf, '"')
	e.buf = appendInterval(e.buf, iv)
	e.buf = append(e.buf, '"')
	e.nl(2)
	e.buf = append(e.buf, '}')
}

// value renders one argument as a JSON string. Constants go through the
// escaper; the rendered forms of nulls, annotated nulls, and intervals
// are ASCII with no escapable characters, so they append directly.
func (e *streamEncoder) value(v value.Value) {
	switch v.Kind() {
	case value.Const:
		e.str(v.Str)
	case value.Null:
		e.buf = append(e.buf, '"', 'N')
		e.buf = strconv.AppendUint(e.buf, v.ID, 10)
		if v.TP != value.NoTP {
			e.buf = append(e.buf, '@')
			e.buf = appendTime(e.buf, v.TP)
		}
		e.buf = append(e.buf, '"')
	case value.AnnNull:
		e.buf = append(e.buf, '"', 'N')
		e.buf = strconv.AppendUint(e.buf, v.ID, 10)
		e.buf = append(e.buf, '^')
		e.buf = appendInterval(e.buf, v.Iv)
		e.buf = append(e.buf, '"')
	case value.IntervalVal:
		e.buf = append(e.buf, '"')
		e.buf = appendInterval(e.buf, v.Iv)
		e.buf = append(e.buf, '"')
	default:
		e.str(v.String())
	}
}

func appendInterval(buf []byte, iv interval.Interval) []byte {
	buf = append(buf, '[')
	buf = appendTime(buf, iv.Start)
	buf = append(buf, ',')
	buf = appendTime(buf, iv.End)
	return append(buf, ')')
}

func appendTime(buf []byte, t interval.Time) []byte {
	if t == interval.Infinity {
		return append(buf, "inf"...)
	}
	return strconv.AppendUint(buf, uint64(t), 10)
}

// nl writes a newline plus two spaces per depth level in indent mode,
// nothing in compact mode. The document has fixed nesting, so depths are
// literal at the call sites.
func (e *streamEncoder) nl(depth int) {
	if !e.indent {
		return
	}
	e.buf = append(e.buf, '\n')
	for i := 0; i < depth; i++ {
		e.buf = append(e.buf, ' ', ' ')
	}
}

// key writes an object key (no escapable characters occur in wire keys)
// at the given depth, with MarshalIndent's ": " separator in indent mode.
func (e *streamEncoder) key(depth int, name string) {
	e.nl(depth)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':')
	if e.indent {
		e.buf = append(e.buf, ' ')
	}
}

// strs renders a []string value whose elements sit one depth below the
// closing bracket, matching encoding/json: nil renders null, empty
// renders [], elements are escaped like any string.
func (e *streamEncoder) strs(depth int, ss []string) {
	if ss == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	if len(ss) == 0 {
		e.buf = append(e.buf, '[', ']')
		return
	}
	e.buf = append(e.buf, '[')
	for i, s := range ss {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.nl(depth + 1)
		e.str(s)
	}
	e.nl(depth)
	e.buf = append(e.buf, ']')
}

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string, escaping exactly as encoding/json does
// with its default HTML escaping: \" and \\, the \b \f \n \r \t
// shorthands, \u00XX for remaining control bytes and for < > & (HTML
// safety), the \ufffd escape for invalid UTF-8 bytes, and \u2028/\u2029 for
// JavaScript line separators. Byte identity with the stdlib here is what
// makes the streamed document equal the marshaled one.
func (e *streamEncoder) str(s string) {
	buf := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, "\\ufffd"...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	e.buf = append(buf, '"')
}

// flush hands the scratch buffer to the writer and resets it.
func (e *streamEncoder) flush() {
	if len(e.buf) == 0 {
		return
	}
	if e.err == nil {
		if _, err := e.w.Write(e.buf); err != nil {
			e.err = err
		}
	}
	e.buf = e.buf[:0]
}
