package logic

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/storage"
	"repro/internal/value"
)

func cv(s string) value.Value { return value.NewConst(s) }

func ivv(s, e interval.Time) value.Value {
	return value.NewInterval(interval.MustNew(s, e))
}

// figure4Store builds the concrete source instance of the paper's
// Figure 4 as interval-tailed tuples.
func figure4Store() *storage.Store {
	st := storage.NewStore()
	st.Insert("E", []value.Value{cv("Ada"), cv("IBM"), ivv(2012, 2014)})
	st.Insert("E", []value.Value{cv("Ada"), cv("Google"), ivv(2014, interval.Infinity)})
	st.Insert("E", []value.Value{cv("Bob"), cv("IBM"), ivv(2013, 2018)})
	st.Insert("S", []value.Value{cv("Ada"), cv("18k"), ivv(2013, interval.Infinity)})
	st.Insert("S", []value.Value{cv("Bob"), cv("13k"), ivv(2015, interval.Infinity)})
	return st
}

func TestTermAndAtomStrings(t *testing.T) {
	a := NewAtom("E", Var("n"), Const("IBM"), Var("t"))
	if got := a.String(); got != "E(?n, IBM, ?t)" {
		t.Fatalf("String = %q", got)
	}
	c := Conjunction{a, NewAtom("S", Var("n"), Var("s"))}
	if got := c.String(); got != "E(?n, IBM, ?t) ∧ S(?n, ?s)" {
		t.Fatalf("String = %q", got)
	}
	if vars := c.Vars(); len(vars) != 3 || vars[0] != "n" || vars[1] != "t" || vars[2] != "s" {
		t.Fatalf("Vars = %v", vars)
	}
	if !c.HasVar("s") || c.HasVar("zz") {
		t.Fatal("HasVar broken")
	}
}

func TestFindAllSingleAtom(t *testing.T) {
	st := figure4Store()
	ms := FindAll(st, Conjunction{NewAtom("E", Var("n"), Var("c"), Var("t"))}, nil)
	if len(ms) != 3 {
		t.Fatalf("got %d matches, want 3", len(ms))
	}
	// Literal filter.
	ms = FindAll(st, Conjunction{NewAtom("E", Var("n"), Const("IBM"), Var("t"))}, nil)
	if len(ms) != 2 {
		t.Fatalf("IBM matches = %d, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Binding["n"] != cv("Ada") && m.Binding["n"] != cv("Bob") {
			t.Fatalf("unexpected binding %v", m.Binding)
		}
		if len(m.Rows) != 1 || m.Rows[0].Rel != "E" {
			t.Fatalf("row witness %v", m.Rows)
		}
	}
}

func TestSharedTemporalVariableRequiresEqualIntervals(t *testing.T) {
	// This is the paper's §4.2 motivation: on the unnormalized Figure 4
	// instance no homomorphism exists from E+(n,c,t) ∧ S+(n,s,t) because t
	// cannot map to a single interval.
	st := figure4Store()
	conj := Conjunction{
		NewAtom("E", Var("n"), Var("c"), Var("t")),
		NewAtom("S", Var("n"), Var("s"), Var("t")),
	}
	if Exists(st, conj, nil) {
		t.Fatal("shared temporal variable must not match differing intervals")
	}
	// After renaming (N(Φ+)), matches appear: atoms may use different
	// intervals.
	renamed := conj.RenameTemporal("t")
	ms := FindAll(st, renamed, nil)
	if len(ms) == 0 {
		t.Fatal("renamed conjunction should match")
	}
	// Ada-IBM with Ada-18k is among them.
	found := false
	for _, m := range ms {
		if m.Binding["n"] == cv("Ada") && m.Binding["c"] == cv("IBM") {
			found = true
			if m.Binding["t#0"] != ivv(2012, 2014) || m.Binding["t#1"] != ivv(2013, interval.Infinity) {
				t.Fatalf("unexpected temporal bindings %v", m.Binding)
			}
		}
	}
	if !found {
		t.Fatal("expected Ada/IBM join")
	}
}

func TestRenameTemporalStructure(t *testing.T) {
	conj := Conjunction{
		NewAtom("R", Var("x"), Var("t")),
		NewAtom("P", Var("y"), Var("t")),
	}
	renamed := conj.RenameTemporal("t")
	if renamed[0].Terms[1].Name != "t#0" || renamed[1].Terms[1].Name != "t#1" {
		t.Fatalf("renamed = %v", renamed)
	}
	// Original untouched.
	if conj[0].Terms[1].Name != "t" {
		t.Fatal("RenameTemporal mutated its receiver")
	}
	// Non-temporal variables unchanged.
	if renamed[0].Terms[0].Name != "x" {
		t.Fatal("data variable renamed")
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	st := storage.NewStore()
	st.Insert("R", []value.Value{cv("a"), cv("a")})
	st.Insert("R", []value.Value{cv("a"), cv("b")})
	ms := FindAll(st, Conjunction{NewAtom("R", Var("x"), Var("x"))}, nil)
	if len(ms) != 1 || ms[0].Binding["x"] != cv("a") {
		t.Fatalf("repeated-variable matches = %v", ms)
	}
}

func TestJoinAcrossAtoms(t *testing.T) {
	st := storage.NewStore()
	st.Insert("R", []value.Value{cv("a"), cv("b")})
	st.Insert("R", []value.Value{cv("b"), cv("c")})
	st.Insert("R", []value.Value{cv("c"), cv("d")})
	// Path query R(x,y) ∧ R(y,z): two 2-step paths.
	ms := FindAll(st, Conjunction{
		NewAtom("R", Var("x"), Var("y")),
		NewAtom("R", Var("y"), Var("z")),
	}, nil)
	if len(ms) != 2 {
		t.Fatalf("paths = %d, want 2", len(ms))
	}
}

func TestInitialBinding(t *testing.T) {
	st := figure4Store()
	ms := FindAll(st,
		Conjunction{NewAtom("E", Var("n"), Var("c"), Var("t"))},
		Binding{"n": cv("Bob")})
	if len(ms) != 1 || ms[0].Binding["c"] != cv("IBM") {
		t.Fatalf("pre-bound matches = %v", ms)
	}
}

func TestEmptyConjunctionMatchesOnce(t *testing.T) {
	st := storage.NewStore()
	n := 0
	ForEach(st, nil, nil, func(Match) bool { n++; return true })
	if n != 1 {
		t.Fatalf("empty conjunction matched %d times, want 1 (identity)", n)
	}
}

func TestMissingRelationNoMatch(t *testing.T) {
	st := figure4Store()
	if Exists(st, Conjunction{NewAtom("Nope", Var("x"))}, nil) {
		t.Fatal("absent relation matched")
	}
}

func TestArityMismatchNoMatch(t *testing.T) {
	st := storage.NewStore()
	st.Insert("R", []value.Value{cv("a")})
	if Exists(st, Conjunction{NewAtom("R", Var("x"), Var("y"))}, nil) {
		t.Fatal("arity mismatch matched")
	}
}

func TestFindOneEarlyStop(t *testing.T) {
	st := storage.NewStore()
	for i := 0; i < 1000; i++ {
		st.Insert("R", []value.Value{cv(fmt.Sprintf("x%d", i))})
	}
	m, ok := FindOne(st, Conjunction{NewAtom("R", Var("x"))}, nil)
	if !ok || m.Binding["x"].Kind() != value.Const {
		t.Fatal("FindOne failed")
	}
}

func TestNullsMatchOnlyThemselves(t *testing.T) {
	st := storage.NewStore()
	n1 := value.NewAnnNull(1, interval.MustNew(1, 3))
	n2 := value.NewAnnNull(2, interval.MustNew(1, 3))
	st.Insert("R", []value.Value{n1, ivv(1, 3)})
	// A literal null matches only the same null.
	if !Exists(st, Conjunction{NewAtom("R", Lit(n1), Var("t"))}, nil) {
		t.Fatal("identical null should match")
	}
	if Exists(st, Conjunction{NewAtom("R", Lit(n2), Var("t"))}, nil) {
		t.Fatal("distinct null matched")
	}
	// A shared variable over two null positions requires the same null.
	st.Insert("S", []value.Value{n2, ivv(1, 3)})
	if Exists(st, Conjunction{
		NewAtom("R", Var("x"), Var("t")),
		NewAtom("S", Var("x"), Var("t")),
	}, nil) {
		t.Fatal("different nulls unified through a shared variable")
	}
}

// TestAgainstBruteForce cross-checks the engine against a brute-force
// enumerator on random instances and random conjunctive patterns.
func TestAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	rels := []string{"R", "S"}
	for trial := 0; trial < 300; trial++ {
		st := storage.NewStore()
		type row struct {
			rel string
			tup []value.Value
		}
		var rows []row
		for i := 0; i < 2+r.Intn(10); i++ {
			rel := rels[r.Intn(2)]
			tup := []value.Value{cv(fmt.Sprintf("c%d", r.Intn(4))), cv(fmt.Sprintf("d%d", r.Intn(4)))}
			if st.Insert(rel, tup) {
				rows = append(rows, row{rel, tup})
			}
		}
		varNames := []string{"x", "y", "z"}
		mkTerm := func() Term {
			if r.Intn(3) == 0 {
				return Const(fmt.Sprintf("c%d", r.Intn(4)))
			}
			return Var(varNames[r.Intn(3)])
		}
		conj := Conjunction{}
		nAtoms := 1 + r.Intn(2)
		for i := 0; i < nAtoms; i++ {
			conj = append(conj, NewAtom(rels[r.Intn(2)], mkTerm(), mkTerm()))
		}

		// Brute force: enumerate all row tuples per atom and check unification.
		var brute int
		var enum func(i int, b Binding)
		enum = func(i int, b Binding) {
			if i == len(conj) {
				brute++
				return
			}
			for _, rw := range rows {
				if rw.rel != conj[i].Rel {
					continue
				}
				nb := b.Clone()
				if bruteUnify(conj[i], rw.tup, nb) {
					enum(i+1, nb)
				}
			}
		}
		enum(0, Binding{})

		got := len(FindAll(st, conj, nil))
		if got != brute {
			t.Fatalf("trial %d: engine=%d brute=%d conj=%v store=\n%s", trial, got, brute, conj, st.String())
		}
	}
}

// bruteUnify is the reference unifier for the randomized cross-check: it
// extends b in place so the atom's terms match the tuple, reporting
// success. It works on raw values, independent of the engine's interned
// fast path.
func bruteUnify(a Atom, tup []value.Value, b Binding) bool {
	if len(a.Terms) != len(tup) {
		return false
	}
	for i, t := range a.Terms {
		if !t.IsVar {
			if t.Val != tup[i] {
				return false
			}
			continue
		}
		if bound, ok := b[t.Name]; ok {
			if bound != tup[i] {
				return false
			}
			continue
		}
		b[t.Name] = tup[i]
	}
	return true
}

func BenchmarkHomSearchIndexed(b *testing.B) {
	st := storage.NewStore()
	for i := 0; i < 10000; i++ {
		st.Insert("E", []value.Value{cv(fmt.Sprintf("n%d", i)), cv(fmt.Sprintf("c%d", i%100)), ivv(0, 10)})
		st.Insert("S", []value.Value{cv(fmt.Sprintf("n%d", i)), cv("50k"), ivv(0, 10)})
	}
	conj := Conjunction{
		NewAtom("E", Var("n"), Var("c"), Var("t")),
		NewAtom("S", Var("n"), Var("s"), Var("t")),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		ForEach(st, conj, nil, func(Match) bool { n++; return true })
		if n != 10000 {
			b.Fatalf("matches = %d", n)
		}
	}
}

func TestMutationDuringEnumerationPanics(t *testing.T) {
	st := figure4Store()
	conj := Conjunction{NewAtom("E", Var("n"), Var("c"), Var("t"))}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("inserting into the searched store mid-enumeration should panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "mutated during plan enumeration") {
			t.Fatalf("panic = %v, want a stale-epoch message", r)
		}
	}()
	ForEachIDs(st, conj, nil, func(*IDMatch) bool {
		st.Insert("E", []value.Value{cv("Eve"), cv("ACME"), ivv(1, 2)})
		return true
	})
}

func TestSubstituteDuringEnumerationPanics(t *testing.T) {
	st := storage.NewStore()
	in := st.Interner()
	n1 := value.NewAnnNull(1, interval.MustNew(0, 2))
	st.Insert("R", []value.Value{cv("a"), n1})
	st.Insert("R", []value.Value{cv("b"), cv("x")})
	nID := in.Intern(n1)
	xID := in.Intern(cv("x"))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("substituting the searched store mid-enumeration should panic")
		}
	}()
	ForEachIDs(st, Conjunction{NewAtom("R", Var("a"), Var("v"))}, nil, func(*IDMatch) bool {
		st.SubstituteIDs([]value.ID{nID}, func(id value.ID) value.ID {
			if id == nID {
				return xID
			}
			return id
		})
		return true
	})
}

// TestInsertIntoOtherStoreDuringEnumeration pins down the supported
// pattern: query evaluation inserts answers into a *different* store
// while enumerating, which must not trip the epoch revalidation.
func TestInsertIntoOtherStoreDuringEnumeration(t *testing.T) {
	st := figure4Store()
	out := storage.NewStore()
	n := 0
	ForEachIDs(st, Conjunction{NewAtom("E", Var("n"), Var("c"), Var("t"))}, nil, func(*IDMatch) bool {
		out.Insert("Ans", []value.Value{cv(fmt.Sprintf("row%d", n))})
		n++
		return true
	})
	if n != 3 || out.Size() != 3 {
		t.Fatalf("matches = %d, answers = %d", n, out.Size())
	}
}

// TestAdaptiveJoinOrderFindsAllMatches cross-checks the selectivity-
// ordered search against brute-force enumeration on a store where the
// posting-list estimates differ sharply between atoms.
func TestAdaptiveJoinOrderFindsAllMatches(t *testing.T) {
	st := storage.NewStore()
	for i := 0; i < 64; i++ {
		st.Insert("Big", []value.Value{cv(fmt.Sprintf("k%d", i%8)), cv(fmt.Sprintf("v%d", i))})
	}
	st.Insert("Small", []value.Value{cv("k3"), cv("only")})
	conj := Conjunction{
		NewAtom("Big", Var("k"), Var("v")),
		NewAtom("Small", Var("k"), Var("w")),
	}
	got := FindAll(st, conj, nil)
	if len(got) != 8 {
		t.Fatalf("matches = %d, want 8 (k3 bucket of Big joined with Small)", len(got))
	}
	for _, m := range got {
		if m.Binding["k"] != cv("k3") || m.Binding["w"] != cv("only") {
			t.Fatalf("bad match %v", m.Binding)
		}
	}
}

// TestExistsIDsAgreesWithExists cross-checks the ID-seeded extension
// check against Exists over random stores, conjunctions and partial
// bindings, including a bound variable the conjunction lacks.
func TestExistsIDsAgreesWithExists(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	rels := []string{"R", "S"}
	for trial := 0; trial < 300; trial++ {
		st := storage.NewStore()
		for i := 0; i < 2+r.Intn(10); i++ {
			st.Insert(rels[r.Intn(2)], []value.Value{cv(fmt.Sprintf("c%d", r.Intn(4))), cv(fmt.Sprintf("c%d", r.Intn(4)))})
		}
		conj := Conjunction{}
		for i := 0; i < 1+r.Intn(2); i++ {
			conj = append(conj, NewAtom(rels[r.Intn(2)], Var([]string{"x", "y", "z"}[r.Intn(3)]), Var([]string{"x", "y"}[r.Intn(2)])))
		}
		bind := Binding{}
		var vars []string
		var ids []value.ID
		for _, name := range []string{"x", "y", "z", "w"} {
			if r.Intn(2) == 0 {
				v := cv(fmt.Sprintf("c%d", r.Intn(5)))
				bind[name] = v
				vars = append(vars, name)
				ids = append(ids, st.Interner().Intern(v))
			}
		}
		if got, want := ExistsIDs(st, conj, vars, ids), Exists(st, conj, bind); got != want {
			t.Fatalf("trial %d: ExistsIDs = %v, Exists = %v for %v under %v", trial, got, want, conj, bind)
		}
	}
}
