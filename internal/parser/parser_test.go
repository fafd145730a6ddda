package parser

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/paperex"
	"repro/internal/temporal"
	"repro/internal/value"
	"repro/internal/workload"
)

// paperMapping is the running example of the paper in TDX syntax.
const paperMapping = `
# Temporal Data Exchange — running example (Examples 1 and 6)
source schema {
    E(name, company)
    S(name, salary)
}
target schema {
    Emp(name, company, salary)
}
tgd sigma1: E(n, c) -> exists s . Emp(n, c, s)
tgd sigma2: E(n, c), S(n, s) -> Emp(n, c, s)
egd key:    Emp(n, c, s), Emp(n, c, s2) -> s = s2
query q(n, s) :- Emp(n, c, s)
`

const paperFacts = `
// Figure 4
E(Ada, IBM)    @ [2012, 2014)
E(Ada, Google) @ [2014, inf)
E(Bob, IBM)    @ [2013, 2018)
S(Ada, 18k)    @ [2013, inf)
S(Bob, 13k)    @ [2015, inf)
`

func TestParsePaperMapping(t *testing.T) {
	f, err := ParseMapping(paperMapping)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Mapping
	if m.Source.Len() != 2 || m.Target.Len() != 1 {
		t.Fatalf("schemas: %d source, %d target", m.Source.Len(), m.Target.Len())
	}
	if len(m.TGDs) != 2 || len(m.EGDs) != 1 {
		t.Fatalf("deps: %d tgds, %d egds", len(m.TGDs), len(m.EGDs))
	}
	if m.TGDs[0].Name != "sigma1" || len(m.TGDs[0].Existentials()) != 1 {
		t.Fatalf("sigma1 = %v", m.TGDs[0])
	}
	if m.TGDs[1].Name != "sigma2" || len(m.TGDs[1].Body) != 2 {
		t.Fatalf("sigma2 = %v", m.TGDs[1])
	}
	if m.EGDs[0].X1 != "s" || m.EGDs[0].X2 != "s2" {
		t.Fatalf("egd = %v", m.EGDs[0])
	}
	if len(f.Queries) != 1 || f.Queries[0].Arity() != 2 {
		t.Fatalf("queries = %v", f.Queries)
	}
}

func TestParsePaperFactsAndRoundTrip(t *testing.T) {
	f, err := ParseMapping(paperMapping)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := ParseFacts(paperFacts, f.Mapping.Source)
	if err != nil {
		t.Fatal(err)
	}
	if !ic.Equal(paperex.Figure4()) {
		t.Fatalf("parsed instance differs from Figure 4:\n%s", ic)
	}
	// End-to-end sanity: chase the parsed input with the parsed mapping.
	jc, _, err := chase.Concrete(ic, f.Mapping, nil)
	if err != nil {
		t.Fatal(err)
	}
	if jc.Len() != 5 {
		t.Fatalf("chase of parsed input: %d facts", jc.Len())
	}
}

func TestConstantsVsVariables(t *testing.T) {
	src := `
source schema { E(a, b) }
target schema { F(a, b) }
tgd: E(x, "IBM") -> F(x, x)
tgd: E(x, 18k) -> F(x, x)
`
	f, err := ParseMapping(src)
	if err != nil {
		t.Fatal(err)
	}
	d0 := f.Mapping.TGDs[0]
	if d0.Body[0].Terms[1].IsVar {
		t.Fatal("quoted string must be a constant")
	}
	if d0.Body[0].Terms[1].Val != value.NewConst("IBM") {
		t.Fatalf("constant = %v", d0.Body[0].Terms[1].Val)
	}
	d1 := f.Mapping.TGDs[1]
	if d1.Body[0].Terms[1].IsVar || d1.Body[0].Terms[1].Val != value.NewConst("18k") {
		t.Fatal("digit-initial word must be a constant")
	}
	if !d0.Body[0].Terms[0].IsVar {
		t.Fatal("bare identifier must be a variable")
	}
}

func TestFactValues(t *testing.T) {
	facts := `
R(N7^[1,3), plain, "N8") @ [1, 3)
`
	ic, err := ParseFacts(facts, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := ic.Facts()
	if len(fs) != 1 {
		t.Fatalf("facts = %v", fs)
	}
	got := fs[0]
	if got.Args[0].Kind() != value.AnnNull || got.Args[0].ID != 7 {
		t.Fatalf("annotated null not parsed: %v", got.Args[0])
	}
	if got.Args[1] != value.NewConst("plain") || got.Args[2] != value.NewConst("N8") {
		t.Fatalf("constants wrong: %v", got.Args)
	}
	if got.T != interval.MustNew(1, 3) {
		t.Fatalf("interval = %v", got.T)
	}
}

func TestUnionQueriesGrouped(t *testing.T) {
	src := `
source schema { E(a) }
target schema { F(a, b) }
tgd: E(x) -> exists y . F(x, y)
query q(x) :- F(x, y)
query q(y) :- F(x, y)
query other(x) :- F(x, y)
`
	f, err := ParseMapping(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Queries) != 2 {
		t.Fatalf("queries = %d", len(f.Queries))
	}
	if len(f.Queries[0].Disjuncts) != 2 || f.Queries[0].Name != "q" {
		t.Fatalf("union q = %v", f.Queries[0])
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"unknown-decl", "frobnicate: x", "unknown declaration"},
		{"missing-arrow", "source schema { E(a) }\ntarget schema { F(a) }\ntgd: E(x) F(x)", "expected"},
		{"bad-dash", "tgd: E(x) - F(x)", "did you mean"},
		{"unterminated-string", `tgd: E("x) -> F(x)`, "unterminated string"},
		{"unterminated-interval", "R(a) @ [1, 3", "unterminated interval"},
		{"egd-missing-eq", "source schema { E(a) }\ntarget schema { F(a) }\negd: F(x) -> x y", "expected '='"},
		{"nondisjoint", "source schema { E(a) }\ntarget schema { E(a) }", "disjoint"},
		{"tgd-wrong-schema", "source schema { E(a) }\ntarget schema { F(a) }\ntgd: F(x) -> E(x)", "not in source schema"},
		{"wrong-existentials", "source schema { E(a) }\ntarget schema { F(a, b) }\ntgd: E(x) -> exists q . F(x, y)", "existential"},
		{"unsafe-query", "source schema { E(a) }\ntarget schema { F(a) }\nquery q(z) :- F(x)", "head variable"},
		{"arity-mismatch", "source schema { E(a) }\ntarget schema { F(a) }\ntgd: E(x, y) -> F(x)", "arity"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseMapping(tt.src)
			if err == nil {
				t.Fatalf("no error for %q", tt.src)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestFactParseErrors(t *testing.T) {
	for _, src := range []string{
		"R(a) [1,2)",   // missing @
		"R(a) @ 5",     // not an interval
		"R(a) @ [5,2)", // inverted
		"R() @ [1,2)",  // no values
		"R(a",          // unterminated
		// A relation has one arity, which its first fact fixes.
		"R(a) @ [0, 1)\nR(a, b) @ [0, 2)",
	} {
		if _, err := ParseFacts(src, nil); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
	// Schema enforcement.
	f, _ := ParseMapping(paperMapping)
	if _, err := ParseFacts("E(Ada) @ [1,2)", f.Mapping.Source); err == nil {
		t.Error("arity violation accepted")
	}
	if _, err := ParseFacts("Zzz(Ada) @ [1,2)", f.Mapping.Source); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestParseQueryLine(t *testing.T) {
	q, err := ParseQueryLine(`query who(n) :- Emp(n, "IBM", s)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "who" || len(q.Head) != 1 || len(q.Body) != 1 {
		t.Fatalf("query = %v", q)
	}
	if _, err := ParseQueryLine("who(n) :- Emp(n, c, s)"); err == nil {
		t.Fatal("missing query keyword accepted")
	}
	if _, err := ParseQueryLine("query q(n) :- Emp(n) extra"); err == nil {
		t.Fatal("trailing tokens accepted")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "# leading comment\n\n\n// another\nsource schema { E(a) } # trailing\ntarget schema { F(a) }\n"
	f, err := ParseMapping(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mapping.Source.Len() != 1 || f.Mapping.Target.Len() != 1 {
		t.Fatal("comments broke parsing")
	}
}

func TestUnicodeArrow(t *testing.T) {
	src := "source schema { E(a) }\ntarget schema { F(a) }\ntgd: E(x) → F(x)"
	f, err := ParseMapping(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Mapping.TGDs) != 1 {
		t.Fatal("unicode arrow not accepted")
	}
}

func TestRenderedFactsReparse(t *testing.T) {
	// Facts rendered by the instance layer (e.g. chase output with
	// annotated nulls) parse back to the identical instance.
	jc, _, err := chase.Concrete(paperex.Figure4(), paperex.EmploymentMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range jc.Facts() {
		args := make([]string, len(f.Args))
		for i, a := range f.Args {
			args[i] = a.String()
		}
		lines = append(lines, f.Rel+"("+strings.Join(args, ", ")+") @ "+f.T.String())
	}
	back, err := ParseFacts(strings.Join(lines, "\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(jc) {
		t.Fatalf("reparse mismatch:\n%s\nvs\n%s", back, jc)
	}
	_ = fact.CFact{}
}

func TestFormatMappingRoundTrip(t *testing.T) {
	f, err := ParseMapping(paperMapping)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatMapping(f.Mapping, f.Queries)
	back, err := ParseMapping(text)
	if err != nil {
		t.Fatalf("formatted mapping does not reparse: %v\n%s", err, text)
	}
	if len(back.Mapping.TGDs) != len(f.Mapping.TGDs) || len(back.Mapping.EGDs) != len(f.Mapping.EGDs) {
		t.Fatal("dependency count changed")
	}
	for i := range f.Mapping.TGDs {
		if back.Mapping.TGDs[i].String() != f.Mapping.TGDs[i].String() {
			t.Fatalf("tgd %d changed: %v vs %v", i, back.Mapping.TGDs[i], f.Mapping.TGDs[i])
		}
	}
	for i := range f.Mapping.EGDs {
		if back.Mapping.EGDs[i].String() != f.Mapping.EGDs[i].String() {
			t.Fatalf("egd %d changed", i)
		}
	}
	if len(back.Queries) != len(f.Queries) {
		t.Fatal("query count changed")
	}
}

func TestFormatTemporalMappingRoundTrip(t *testing.T) {
	// Every modal marker in one mapping: the formatted text must reparse
	// to the same temporal mapping, and formatting must be a fixed point
	// (format(parse(format(m))) == format(m)) — the property Fingerprint
	// hashing relies on.
	const text = `
source schema { P(n) }
target schema {
    A(n, u)
    B(n)
}
tgd t1: P(n) -> exists u . past A(n, u), B(n)
tgd t2: P(n) -> future B(n)
tgd t3: P(n) -> always past B(n)
tgd t4: P(n) -> exists u . always future A(n, u)
egd k: A(n, u), A(n, u2) -> u = u2
query q(n) :- B(n)
`
	f, err := ParseMapping(text)
	if err != nil {
		t.Fatal(err)
	}
	if f.Temporal == nil {
		t.Fatal("mapping did not parse as temporal")
	}
	formatted := FormatTemporalMapping(f.Temporal, f.Queries)
	back, err := ParseMapping(formatted)
	if err != nil {
		t.Fatalf("formatted temporal mapping does not reparse: %v\n%s", err, formatted)
	}
	if back.Temporal == nil {
		t.Fatalf("reparse lost temporal markers:\n%s", formatted)
	}
	if len(back.Temporal.TGDs) != len(f.Temporal.TGDs) || len(back.Temporal.EGDs) != len(f.Temporal.EGDs) {
		t.Fatal("dependency count changed")
	}
	for i, d := range f.Temporal.TGDs {
		got := back.Temporal.TGDs[i]
		if got.Name != d.Name || len(got.Head) != len(d.Head) {
			t.Fatalf("tgd %d changed: %+v vs %+v", i, got, d)
		}
		for j := range d.Head {
			if got.Head[j].Ref != d.Head[j].Ref {
				t.Fatalf("tgd %d head %d ref changed: %v vs %v", i, j, got.Head[j].Ref, d.Head[j].Ref)
			}
		}
	}
	if again := FormatTemporalMapping(back.Temporal, back.Queries); again != formatted {
		t.Fatalf("format not a fixed point:\n%s\nvs\n%s", formatted, again)
	}
	if len(back.Queries) != len(f.Queries) {
		t.Fatal("query count changed")
	}
}

func TestFormatFactsRoundTrip(t *testing.T) {
	// Chase output (with annotated nulls) and tricky constants both
	// survive the format → parse round trip.
	jc, _, err := chase.Concrete(paperex.Figure4(), paperex.EmploymentMapping(), nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseFacts(FormatFacts(jc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(jc) {
		t.Fatalf("round trip changed instance:\n%s\nvs\n%s", back, jc)
	}
	// Constants that resemble nulls or contain spaces must be quoted.
	tricky := instance.NewConcrete(nil)
	tricky.MustInsert(fact.NewC("R", interval.MustNew(1, 2),
		value.NewConst("N7"), value.NewConst("has space"), value.NewConst("")))
	back2, err := ParseFacts(FormatFacts(tricky), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !back2.Equal(tricky) {
		t.Fatalf("tricky constants changed:\n%s\nvs\n%s", back2, tricky)
	}
}

func TestFormatRandomMappingsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		m := workload.RandomMapping(r)
		text := FormatMapping(m, nil)
		back, err := ParseMapping(text)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, text)
		}
		if FormatMapping(back.Mapping, nil) != text {
			t.Fatalf("trial %d: format not stable:\n%s\nvs\n%s", trial, text, FormatMapping(back.Mapping, nil))
		}
	}
}

func TestModalTGDParsing(t *testing.T) {
	src := `
source schema { PhDgrad(name) }
target schema {
    PhDCan(name, adviser, topic)
    Alumni(name, u)
}
tgd was-candidate: PhDgrad(n) -> exists adv, top . past PhDCan(n, adv, top)
tgd stays-alumni:  PhDgrad(n) -> exists u . always future Alumni(n, u)
tgd plain:         PhDgrad(n) -> exists x, y . PhDCan(n, x, y)
`
	f, err := ParseMapping(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Temporal == nil {
		t.Fatal("temporal mapping not built")
	}
	// Plain tgds join the temporal setting as AtT; total three.
	if len(f.Temporal.TGDs) != 3 {
		t.Fatalf("temporal tgds = %d", len(f.Temporal.TGDs))
	}
	if len(f.Mapping.TGDs) != 1 {
		t.Fatalf("plain tgds = %d", len(f.Mapping.TGDs))
	}
	refs := map[string]temporal.Ref{}
	for _, d := range f.Temporal.TGDs {
		refs[d.Name] = d.Head[0].Ref
	}
	if refs["was-candidate"] != temporal.SometimePast ||
		refs["stays-alumni"] != temporal.AlwaysFut ||
		refs["plain"] != temporal.AtT {
		t.Fatalf("refs = %v", refs)
	}
}

func TestModalKeywordVsRelationName(t *testing.T) {
	// A relation literally named "past" still works: the marker is only
	// recognized when another word follows.
	src := `
source schema { E(a) }
target schema { past(a) }
tgd: E(x) -> past(x)
`
	f, err := ParseMapping(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.Temporal != nil {
		t.Fatal("plain mapping misread as temporal")
	}
	if f.Mapping.TGDs[0].Head[0].Rel != "past" {
		t.Fatalf("head = %v", f.Mapping.TGDs[0].Head)
	}
}

func TestModalErrors(t *testing.T) {
	if _, err := ParseMapping(`
source schema { E(a) }
target schema { F(a) }
tgd: E(x) -> always sideways F(x)
`); err == nil || !strings.Contains(err.Error(), "'past' or 'future'") {
		t.Fatalf("bad always direction: %v", err)
	}
	// Cross-ref existential caught by temporal validation.
	if _, err := ParseMapping(`
source schema { E(a) }
target schema { F(a, b)
                G(a, b) }
tgd: E(x) -> exists y . F(x, y), past G(x, y)
`); err == nil || !strings.Contains(err.Error(), "spans temporal references") {
		t.Fatalf("cross-ref existential: %v", err)
	}
}
