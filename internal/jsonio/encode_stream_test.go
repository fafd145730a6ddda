package jsonio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/schema"
	"repro/internal/value"
)

// instanceJSON is the wire form of a whole instance, as legacyEncode
// marshals it.
type instanceJSON struct {
	Schema []relJSON  `json:"schema,omitempty"`
	Facts  []factJSON `json:"facts"`
}

// legacyEncode is the pre-streaming implementation of Encode, kept here
// as the byte-identity reference: materialize the sorted fact set, build
// the []factJSON mirror with rendered strings, and MarshalIndent the
// whole document. The streaming encoder must reproduce its output
// byte-for-byte on every instance.
func legacyEncode(c *instance.Concrete) ([]byte, error) {
	var out instanceJSON
	if sch := c.Schema(); sch != nil {
		for _, name := range sch.Names() {
			r, _ := sch.Relation(name)
			out.Schema = append(out.Schema, relJSON{Name: r.Name, Attrs: r.Attrs})
		}
	}
	for _, f := range c.Facts() {
		fj := factJSON{Rel: f.Rel, Interval: f.T.String(), Args: make([]string, len(f.Args))}
		for i, a := range f.Args {
			fj.Args[i] = a.String()
		}
		out.Facts = append(out.Facts, fj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// trickyStrings are constants that exercise every escaping branch of the
// stdlib encoder: quotes, backslashes, control shorthands, other control
// bytes, the HTML-escaped trio, invalid UTF-8, the JavaScript line
// separators, and multi-byte runes.
var trickyStrings = []string{
	"plain", "IBM", "18k", "with space", "q\"uote", `back\slash`,
	"tab\there", "nl\nhere", "cr\rhere", "bell\bback\ffeed",
	"ctl\x01\x1f", "del\x7f", "<script>&amp;</script>", "a<b>c&d",
	"\xff\xfe invalid", "line\u2028sep\u2029arator", "Ωmega-ключ-鍵",
	"", " ", "N7", "[2013,2014)",
}

func randomInterval(r *rand.Rand) interval.Interval {
	start := interval.Time(r.Intn(50))
	if r.Intn(4) == 0 {
		return interval.Interval{Start: start, End: interval.Infinity}
	}
	return interval.Interval{Start: start, End: start + 1 + interval.Time(r.Intn(40))}
}

// randomInstance builds an instance mixing constants, plain/projected
// nulls, and annotated nulls, optionally schemaless, where each relation
// keeps the one arity its first fact fixed.
func randomInstance(r *rand.Rand, withSchema bool) *instance.Concrete {
	var sch *schema.Schema
	rels := []string{"B", "Emp", "R<&>", "a relation", "Ωrel"}
	if withSchema {
		sch, _ = schema.New()
		for i, name := range rels {
			attrs := make([]string, 1+i%3)
			for j := range attrs {
				attrs[j] = fmt.Sprintf("a%d", j)
			}
			rel, err := schema.NewRelation(name, attrs...)
			if err != nil {
				panic(err)
			}
			if err := sch.Add(rel); err != nil {
				panic(err)
			}
		}
	}
	c := instance.NewConcrete(sch)
	n := 20 + r.Intn(120)
	for i := 0; i < n; i++ {
		ri := r.Intn(len(rels))
		name := rels[ri]
		arity := 1 + ri%3
		if !withSchema {
			arity = 1 + ri%4
		}
		iv := randomInterval(r)
		args := make([]value.Value, arity)
		for j := range args {
			switch r.Intn(5) {
			case 0:
				args[j] = value.NewNull(uint64(r.Intn(9)))
			case 1:
				args[j] = value.NewProjectedNull(uint64(r.Intn(9)), interval.Time(r.Intn(40)))
			case 2:
				args[j] = value.NewAnnNull(uint64(r.Intn(9)), iv)
			default:
				args[j] = value.NewConst(trickyStrings[r.Intn(len(trickyStrings))])
			}
		}
		if _, err := c.Insert(fact.NewC(name, iv, args...)); err != nil {
			panic(err)
		}
	}
	return c
}

// killSomeRows substitutes one interned constant into another, collapsing
// duplicate rows into dead ones, so the encoder's validity-bitmap walk is
// exercised against a store whose row space is larger than its fact set.
func killSomeRows(c *instance.Concrete) {
	in := c.Interner()
	a := in.Intern(value.NewConst("IBM"))
	b := in.Intern(value.NewConst("18k"))
	c.Store().SubstituteIDs([]value.ID{a}, func(id value.ID) value.ID {
		if id == a {
			return b
		}
		return id
	})
}

func checkIdentity(t *testing.T, c *instance.Concrete) {
	t.Helper()
	want, err := legacyEncode(c)
	if err != nil {
		t.Fatalf("legacyEncode: %v", err)
	}
	var got bytes.Buffer
	if err := EncodeTo(&got, c); err != nil {
		t.Fatalf("EncodeTo: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("EncodeTo differs from legacy encoder:\n got: %s\nwant: %s", got.Bytes(), want)
	}
	var wantCompact bytes.Buffer
	if err := json.Compact(&wantCompact, want); err != nil {
		t.Fatalf("json.Compact: %v", err)
	}
	var gotCompact bytes.Buffer
	if err := EncodeCompactTo(&gotCompact, c); err != nil {
		t.Fatalf("EncodeCompactTo: %v", err)
	}
	if !bytes.Equal(gotCompact.Bytes(), wantCompact.Bytes()) {
		t.Fatalf("EncodeCompactTo differs from json.Compact of legacy:\n got: %s\nwant: %s", gotCompact.Bytes(), wantCompact.Bytes())
	}
	// Encode is a wrapper over EncodeTo; it must agree with itself too.
	viaEncode, err := Encode(c)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(viaEncode, want) {
		t.Fatal("Encode (buffered wrapper) differs from legacy encoder")
	}
}

func TestEncodeToByteIdentityRandomized(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for _, withSchema := range []bool{false, true} {
			r := rand.New(rand.NewSource(seed))
			c := randomInstance(r, withSchema)
			checkIdentity(t, c)
			// Dead rows via egd-style substitution, then again frozen: the
			// frozen path is the one tdxd serves from.
			killSomeRows(c)
			checkIdentity(t, c)
			c.Freeze()
			checkIdentity(t, c)
		}
	}
}

func TestEncodeToEmptyAndSchemaOnly(t *testing.T) {
	// Schemaless empty: {"facts": null} exactly as the legacy encoder.
	checkIdentity(t, instance.NewConcrete(nil))
	sch := schema.MustNew(schema.MustRelation("Emp", "name", "co"))
	checkIdentity(t, instance.NewConcrete(sch))
}

func TestEncodeToRoundTrips(t *testing.T) {
	// Parse-safe values only: the value syntax is injective for strings
	// produced by parsing, not for arbitrary constants (a constant
	// literally named "N7" decodes as a null — a pre-existing property of
	// the wire format, not of the streaming encoder).
	c := benchInstance(500)
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode of streamed document: %v", err)
	}
	if !back.Equal(c) {
		t.Fatal("streamed document does not round-trip through Decode")
	}
}

// TestEscaperMatchesStdlib drives the string escaper alone over random
// byte soup (valid and invalid UTF-8 alike) and every tricky string,
// comparing against json.Marshal of the same string.
func TestEscaperMatchesStdlib(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		e := &streamEncoder{}
		e.str(s)
		if !bytes.Equal(e.buf, want) {
			t.Fatalf("escaper differs for %q:\n got %s\nwant %s", s, e.buf, want)
		}
	}
	for _, s := range trickyStrings {
		check(s)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		b := make([]byte, r.Intn(40))
		for j := range b {
			b[j] = byte(r.Intn(256))
		}
		check(string(b))
	}
	for i := 0; i < 200; i++ {
		rs := make([]rune, r.Intn(20))
		for j := range rs {
			rs[j] = rune(r.Intn(0x3000))
		}
		check(string(rs))
	}
}

// TestEncodeToWriteError confirms the sticky-error contract: a failing
// writer aborts the encode with its error instead of panicking or
// writing further.
func TestEncodeToWriteError(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	c := randomInstance(r, true)
	wantErr := fmt.Errorf("sink closed")
	if err := EncodeTo(failWriter{wantErr}, c); err != wantErr {
		t.Fatalf("EncodeTo on failing writer: got %v, want %v", err, wantErr)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write(p []byte) (int, error) { return 0, f.err }

// TestEncodeToAllocsBounded is the O(1)-allocations-per-fact claim: the
// total allocation count of a streamed encode over a frozen 10k-fact
// instance must stay a small constant (buffers, sort scaffolding — not
// per-fact strings or slices), which also proves no solution-sized
// staging buffer is built. Skipped under the race detector, whose
// instrumentation inflates allocation counts.
func TestEncodeToAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	c := benchInstance(10_000)
	c.Freeze()
	allocs := testing.AllocsPerRun(5, func() {
		if err := EncodeTo(io.Discard, c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("EncodeTo of 10k facts allocated %v times; want a small constant (O(1) per fact means not O(n) total)", allocs)
	}
}

// benchInstance builds a frozen-ready employment-shaped instance with
// roughly n facts across a handful of relations.
func benchInstance(n int) *instance.Concrete {
	sch := schema.MustNew(
		schema.MustRelation("Emp", "name", "company", "salary"),
		schema.MustRelation("Proj", "name", "project"),
	)
	c := instance.NewConcrete(sch)
	r := rand.New(rand.NewSource(1))
	for i := 0; c.Len() < n; i++ {
		iv := interval.Interval{Start: interval.Time(i % 100), End: interval.Time(i%100 + 1 + r.Intn(10))}
		name := value.NewConst(fmt.Sprintf("person-%d", i))
		if i%3 == 0 {
			c.MustInsert(fact.NewC("Proj", iv, name, value.NewAnnNull(uint64(i%50), iv)))
		} else {
			c.MustInsert(fact.NewC("Emp", iv, name,
				value.NewConst(fmt.Sprintf("company-%d", i%37)),
				value.NewConst(fmt.Sprintf("%dk", 10+i%90))))
		}
	}
	return c
}

// BenchmarkEncode compares the streamed encoder against the legacy
// materialize-then-marshal path at 1k/10k/100k facts. The interesting
// columns are allocs/op and B/op: the streamed path's are O(1) in the
// fact count, the legacy path's are O(n). The streamed rows freeze only
// the store, so every value the encoder resolves takes the interner's
// read lock; the streamed-frozen rows freeze the interner too, as
// tdx.Instance.Freeze does for every Solution, and resolve without it.
func BenchmarkEncode(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		c := benchInstance(n)
		c.Freeze()
		b.Run(fmt.Sprintf("streamed/%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := EncodeTo(io.Discard, c); err != nil {
					b.Fatal(err)
				}
			}
		})
		fc := benchInstance(n)
		fc.Freeze()
		fc.Interner().Freeze()
		b.Run(fmt.Sprintf("streamed-frozen/%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := EncodeTo(io.Discard, fc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("legacy/%dk", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := legacyEncode(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
