package query

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/jsonio"
	"repro/internal/logic"
	"repro/internal/normalize"
	"repro/internal/paperex"
	"repro/internal/value"
	"repro/internal/workload"
)

// referenceNaiveEval is the evaluator NaiveEval replaced, kept as its
// differential reference. Step 2 copies the normalized solution into an
// instance of its own, renaming each interval-annotated null N^[s,e) to
// the constant "cn_N^[s,e)", and step 4 drops the answers holding such a
// constant. On a solution whose data constants include one spelled like
// a renamed null it conflates the two; on every other solution it is
// exact.
func referenceNaiveEval(u UCQ, jc *instance.Concrete) *instance.Concrete {
	out := instance.NewConcrete(nil)
	for _, q := range u.Disjuncts {
		body := q.ConcreteBody()
		normed := normalize.ForEgdPhase(jc, []logic.Conjunction{body}, normalize.StrategySmart)
		frozen := instance.NewConcrete(normed.Schema())
		fresh := make(map[value.Value]bool)
		for _, f := range normed.Facts() {
			args := make([]value.Value, len(f.Args))
			for i, v := range f.Args {
				if v.Kind() == value.AnnNull {
					cv := value.NewConst("cn_" + v.String())
					fresh[cv] = true
					args[i] = cv
				} else {
					args[i] = v
				}
			}
			frozen.MustInsert(fact.CFact{Rel: f.Rel, Args: args, T: f.T})
		}
		logic.ForEach(frozen.Store(), body, nil, func(m logic.Match) bool {
			t, ok := m.Binding[dependency.TemporalVar].Interval()
			if !ok {
				return true
			}
			args := make([]value.Value, len(q.Head))
			for i, h := range q.Head {
				args[i] = m.Binding[h]
				if fresh[args[i]] {
					return true
				}
			}
			out.MustInsert(fact.NewC(u.Name, t, args...))
			return true
		})
	}
	return out.Coalesce()
}

// assertMatchesReference freezes jc and requires NaiveEval's answers to
// encode to the reference's bytes on jc and on an unfrozen clone of it.
func assertMatchesReference(t *testing.T, what string, u UCQ, jc *instance.Concrete) {
	t.Helper()
	clone := jc.Clone()
	jc.Freeze()
	for _, c := range []*instance.Concrete{jc, clone} {
		ans, err := NaiveEval(context.Background(), u, c)
		if err != nil {
			t.Fatalf("%s, %v: %v", what, u.Disjuncts, err)
		}
		got, err := jsonio.Encode(ans)
		if err != nil {
			t.Fatal(err)
		}
		want, err := jsonio.Encode(referenceNaiveEval(u, c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s, %v (frozen %v):\nNaiveEval:\n%s\nreference:\n%s", what, u.Disjuncts, c.Frozen(), got, want)
		}
	}
}

// empQueries returns Theorem 21's property queries over Emp — one atom,
// a join on the company, a union with literal companies — and a join on
// the salary, which joins through unknown salaries.
func empQueries(t *testing.T) []UCQ {
	t.Helper()
	emp := func(n, c, s logic.Term) logic.Atom { return logic.NewAtom("Emp", n, c, s) }
	v := logic.Var
	cqs := [][]CQ{
		{{Name: "q", Head: []string{"n", "s"}, Body: logic.Conjunction{emp(v("n"), v("c"), v("s"))}}},
		{{Name: "q", Head: []string{"n", "n2"}, Body: logic.Conjunction{
			emp(v("n"), v("c"), v("s")), emp(v("n2"), v("c"), v("s2"))}}},
		{
			{Name: "q", Head: []string{"n"}, Body: logic.Conjunction{emp(v("n"), logic.Const("X"), v("s"))}},
			{Name: "q", Head: []string{"n"}, Body: logic.Conjunction{emp(v("n"), logic.Const("Y"), v("s"))}},
		},
		{{Name: "q", Head: []string{"a", "b"}, Body: logic.Conjunction{
			emp(v("a"), v("c"), v("s")), emp(v("b"), v("c2"), v("s"))}}},
	}
	out := make([]UCQ, len(cqs))
	for i, ds := range cqs {
		u, err := NewUCQ("q", ds...)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = u
	}
	return out
}

// relQueries returns, for a target relation of the given arity, the
// one-atom query over all its positions and a self-join on its last
// position (the one a random mapping's egds equate).
func relQueries(t *testing.T, rel string, arity int) []UCQ {
	t.Helper()
	xs := make([]logic.Term, arity)
	ys := make([]logic.Term, arity)
	names := make([]string, arity)
	for i := range xs {
		names[i] = fmt.Sprintf("x%d", i)
		xs[i] = logic.Var(names[i])
		ys[i] = logic.Var(fmt.Sprintf("y%d", i))
	}
	ys[arity-1] = xs[arity-1]
	one, err := NewUCQ("q", CQ{Name: "q", Head: names, Body: logic.Conjunction{logic.NewAtom(rel, xs...)}})
	if err != nil {
		t.Fatal(err)
	}
	join, err := NewUCQ("q", CQ{Name: "q", Head: []string{xs[0].Name, ys[0].Name, xs[arity-1].Name},
		Body: logic.Conjunction{logic.NewAtom(rel, xs...), logic.NewAtom(rel, ys...)}})
	if err != nil {
		t.Fatal(err)
	}
	return []UCQ{one, join}
}

func TestNaiveEvalMatchesReference(t *testing.T) {
	emp := empQueries(t)
	m := paperex.EmploymentMapping()
	for _, u := range emp {
		assertMatchesReference(t, "figure 4", u, chaseFigure4(t))
	}
	for _, persons := range []int{50, 200} {
		ic := workload.Employment(workload.EmploymentConfig{
			Seed: 1, Persons: persons, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 200,
		})
		jc, _, err := chase.Concrete(ic, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range emp {
			assertMatchesReference(t, fmt.Sprintf("employment-%d", persons), u, jc)
		}
	}
	// TestTheorem21Property's random solutions.
	r := rand.New(rand.NewSource(53))
	var g value.NullGen
	for trial := 0; trial < 120; trial++ {
		jc := randomSolution(r, &g)
		for _, u := range emp[:3] {
			assertMatchesReference(t, fmt.Sprintf("random solution %d", trial), u, jc)
		}
	}
	solved := 0
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		rm := workload.RandomMapping(r)
		jc, _, err := chase.Concrete(workload.RandomInstanceFor(r, rm, 300), rm, nil)
		if err != nil {
			continue // no solution
		}
		solved++
		for _, name := range rm.Target.Names() {
			rel, _ := rm.Target.Relation(name)
			for _, u := range relQueries(t, name, rel.Arity()) {
				assertMatchesReference(t, fmt.Sprintf("random mapping seed %d", seed), u, jc)
			}
		}
	}
	if solved < 40 {
		t.Fatalf("only %d of 50 random mappings have a solution", solved)
	}
}
