package jsonio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/instance"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestDecodeMatchesReference: on Encode output of random instances —
// tricky strings, every null form, relations of different arities — the
// scanner builds what referenceDecode builds, interner IDs included, with
// and without the instance's schema expected.
func TestDecodeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		c := decodable(randomInstance(r, i%2 == 0))
		data, err := Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, data, nil)
		if c.Schema() != nil {
			checkAgainstReference(t, data, c.Schema())
		}
	}
	data, err := Encode(benchInstance(2_000))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, data, nil)
}

// TestDecodeRejectsSecondArity: without a schema, a relation whose facts
// take two arities is rejected by the scanner and by referenceDecode
// with the same error.
func TestDecodeRejectsSecondArity(t *testing.T) {
	const want = "jsonio: fact 1: instance: R has 1 data attributes, got 2"
	for name, decode := range map[string]func(io.Reader, *schema.Schema) (*instance.Concrete, error){
		"DecodeReader": DecodeReader, "referenceDecode": referenceDecode,
	} {
		if _, err := decode(strings.NewReader(mixedArityDoc), nil); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}

// decodable keeps the facts of c whose arguments value.Parse reads back
// as arguments — not "", " " or an interval — so that c's document
// decodes as a whole and every fact reaches the insert path.
func decodable(c *instance.Concrete) *instance.Concrete {
	out := instance.NewConcrete(c.Schema())
	for _, f := range c.Facts() {
		ok := true
		for _, a := range f.Args {
			v, err := value.Parse(a.String())
			ok = ok && err == nil && !v.IsInterval()
		}
		if ok {
			out.MustInsert(f)
		}
	}
	return out
}

// longDocs are documents whose tokens outgrow the read window: a
// constant, a skipped value and a schema section each longer than it.
func longDocs() []string {
	long := strings.Repeat("x", readWindow+100)
	return []string{
		`{"facts":[{"rel":"R","args":["` + long + `","aé` + long + `"],"interval":"[1,2)"}]}`,
		`{"skip":["` + long + `",` + strings.Repeat(`{"k":[1.5e3,true]},`, readWindow/16) + `null],"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}]}`,
		`{"schema":[{"name":"R","attrs":["` + long + `"]}],"facts":[{"rel":"R","args":["a"],"interval":"[1,2)"}]}`,
	}
}

// TestDecodeReaderStreams: the scanner reads through its window
// whatever the reader's chunking. The same documents decode identically
// from one byte per Read, half of each requested Read and data returned
// with io.EOF, and a reader failing mid-document yields an error that
// wraps the read error.
func TestDecodeReaderStreams(t *testing.T) {
	docs := longDocs()
	for _, c := range []*instance.Concrete{benchInstance(500), decodable(randomInstance(rand.New(rand.NewSource(5)), true))} {
		data, err := Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(data))
	}
	readers := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data-err": iotest.DataErrReader,
	}
	for i, doc := range docs {
		want, err := DecodeReader(strings.NewReader(doc), nil)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		for name, wrap := range readers {
			got, err := DecodeReader(wrap(strings.NewReader(doc)), nil)
			if err != nil {
				t.Fatalf("doc %d through %s: %v", i, name, err)
			}
			sameInstance(t, []byte(doc[:min(len(doc), 80)]), got, want)
		}
		boom := errors.New("connection reset")
		for _, cut := range []int{0, 1, len(doc) / 2, len(doc) - 1, len(doc)} {
			r := io.MultiReader(strings.NewReader(doc[:cut]), iotest.ErrReader(boom))
			if _, err := DecodeReader(r, nil); !errors.Is(err, boom) {
				t.Fatalf("doc %d cut at %d: error %v does not wrap the read error", i, cut, err)
			}
		}
	}
}

// TestDecodeAllocsBounded is the decode twin of TestEncodeToAllocsBounded:
// decoding benchInstance(10_000)'s document costs at most 2 allocations
// per fact — a new constant's string, the string value.Parse takes for a
// null argument — against the reference's dozen. Skipped under the race
// detector, whose instrumentation inflates allocation counts.
func TestDecodeAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	c := benchInstance(10_000)
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := DecodeReader(bytes.NewReader(data), nil); err != nil {
			t.Fatal(err)
		}
	})
	if perFact := allocs / float64(c.Len()); perFact > 2 {
		t.Fatalf("DecodeReader of %d facts allocated %.0f times (%.2f per fact); want at most 2 per fact", c.Len(), allocs, perFact)
	}
}

// BenchmarkDecode is the twin of BenchmarkEncode: the scanner against
// the encoding/json reference at 1k/10k/100k facts. The interesting
// columns are allocs/op and B/op, which the scanner cuts to about one
// allocation per new constant.
func BenchmarkDecode(b *testing.B) {
	decoders := []struct {
		name   string
		decode func(io.Reader, *schema.Schema) (*instance.Concrete, error)
	}{{"scan", DecodeReader}, {"reference", referenceDecode}}
	for _, n := range []int{1_000, 10_000, 100_000} {
		data, err := Encode(benchInstance(n))
		if err != nil {
			b.Fatal(err)
		}
		for _, dec := range decoders {
			b.Run(fmt.Sprintf("%s/%dk", dec.name, n/1000), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					if _, err := dec.decode(bytes.NewReader(data), nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
