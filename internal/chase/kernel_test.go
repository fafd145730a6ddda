package chase

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/interval"
	"repro/internal/jsonio"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestTGDHeadErrors drives tgds whose head breaks the target schema — an
// unknown relation, a wrong arity — with and without an existential:
// the chase must fail with the text instance.Insert gives.
func TestTGDHeadErrors(t *testing.T) {
	n, c, y := logic.Var("n"), logic.Var("c"), logic.Var("y")
	emp := paperex.EmploymentMapping()
	src := workload.Employment(workload.EmploymentConfig{Seed: 1, Persons: 60, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 120})
	cases := []struct {
		name string
		head logic.Atom
		want string
	}{
		{"unknown", logic.NewAtom("Nope", n, c), "chase: tgd bad: instance: unknown relation Nope"},
		{"unknown/exist", logic.NewAtom("Nope", n, y), "chase: tgd bad: instance: unknown relation Nope"},
		{"arity", logic.NewAtom("Emp", n, c), "chase: tgd bad: instance: Emp expects 3 data attributes, got 2"},
		{"arity/exist", logic.NewAtom("Emp", n, y), "chase: tgd bad: instance: Emp expects 3 data attributes, got 2"},
	}
	for _, tc := range cases {
		m := &dependency.Mapping{Source: emp.Source, Target: emp.Target, TGDs: []dependency.TGD{
			{Name: "bad", Body: logic.Conjunction{logic.NewAtom("E", n, c)}, Head: logic.Conjunction{tc.head}},
		}}
		_, _, err := Concrete(src, m, nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestTGDHeadLiterals chases two tgds whose heads carry literals absent
// from the source, one with an existential and one without, and pins the
// JSON document and the statistics. The digest was recorded under the
// map-based sequential pass, with the worker fields zeroed. Literals may
// be interned in another order than that pass interned them, so their
// IDs stay out of the digest.
func TestTGDHeadLiterals(t *testing.T) {
	const want = "b99740457f5ea69ed5b37464bcb2f3c73af516668ded22fe144628abd89f34f7"
	n, c, s := logic.Var("n"), logic.Var("c"), logic.Var("s")
	emp := paperex.EmploymentMapping()
	m := &dependency.Mapping{
		Source: emp.Source,
		Target: schema.MustNew(schema.MustRelation("Emp", "name", "company", "salary"), schema.MustRelation("Tag", "name", "label")),
		TGDs: []dependency.TGD{
			{Name: "paid", Body: logic.Conjunction{logic.NewAtom("S", n, s)},
				Head: logic.Conjunction{logic.NewAtom("Emp", n, c, s), logic.NewAtom("Tag", n, logic.Const("paid"))}},
			{Name: "hired", Body: logic.Conjunction{logic.NewAtom("E", n, c)},
				Head: logic.Conjunction{logic.NewAtom("Tag", n, logic.Const("hired")), logic.NewAtom("Emp", n, c, logic.Const("unknown"))}},
		},
	}
	src := workload.Employment(workload.EmploymentConfig{Seed: 1, Persons: 60, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 120})
	out, stats, err := Concrete(src, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := jsonio.Encode(out)
	if err != nil {
		t.Fatal(err)
	}
	stats.TGDWorkers, stats.EgdWorkers = 0, 0
	sj, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(doc)
	h.Write(sj)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}

// TestTGDHeadOddLiterals covers the head rows built the way
// instance.Insert builds them: an annotated-null literal is re-annotated
// to each firing's interval, and an interval literal fails Validate.
func TestTGDHeadOddLiterals(t *testing.T) {
	n, c := logic.Var("n"), logic.Var("c")
	emp := paperex.EmploymentMapping()
	tgt := schema.MustNew(schema.MustRelation("Tag", "name", "label"))
	src := workload.Employment(workload.EmploymentConfig{Seed: 1, Persons: 60, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 120})
	mapping := func(lit value.Value) *dependency.Mapping {
		return &dependency.Mapping{Source: emp.Source, Target: tgt, TGDs: []dependency.TGD{
			{Name: "odd", Body: logic.Conjunction{logic.NewAtom("E", n, c)}, Head: logic.Conjunction{logic.NewAtom("Tag", n, logic.Lit(lit))}},
		}}
	}
	out, _, err := Concrete(src, mapping(value.NewAnnNull(7, interval.MustNew(0, 1))), nil)
	if err != nil {
		t.Fatal(err)
	}
	out.EachFact(func(f fact.CFact) bool {
		if f.Args[1] != value.NewAnnNull(7, f.T) {
			t.Fatalf("%v: literal not re-annotated to the fact's interval", f)
		}
		return true
	})
	_, _, err = Concrete(src, mapping(value.NewInterval(interval.MustNew(0, 1))), nil)
	if msg := "chase: tgd odd: fact Tag: argument 1 is an interval; intervals may only appear as the temporal attribute"; err == nil || err.Error() != msg {
		t.Fatalf("err = %v, want %q", err, msg)
	}
}
