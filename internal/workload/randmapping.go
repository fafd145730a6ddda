package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/schema"
	"repro/internal/value"
)

// RandomMapping generates a small random but always valid data exchange
// setting: 1–3 source relations, 1–2 target relations, 1–3 s-t tgds with
// shared variables and occasional existentials, and 0–2 egds. Used by
// the randomized Figure 10 commutativity property test to cover mapping
// shapes far beyond the paper's running example.
func RandomMapping(r *rand.Rand) *dependency.Mapping {
	nSrc := 1 + r.Intn(3)
	nTgt := 1 + r.Intn(2)
	src, _ := schema.New()
	tgt, _ := schema.New()
	srcRels := make([]schema.Relation, nSrc)
	tgtRels := make([]schema.Relation, nTgt)
	for i := range srcRels {
		attrs := make([]string, 1+r.Intn(2))
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		srcRels[i] = schema.MustRelation(fmt.Sprintf("S%d", i), attrs...)
		if err := src.Add(srcRels[i]); err != nil {
			panic(err)
		}
	}
	for i := range tgtRels {
		attrs := make([]string, 1+r.Intn(3))
		for j := range attrs {
			attrs[j] = fmt.Sprintf("a%d", j)
		}
		tgtRels[i] = schema.MustRelation(fmt.Sprintf("T%d", i), attrs...)
		if err := tgt.Add(tgtRels[i]); err != nil {
			panic(err)
		}
	}
	m := &dependency.Mapping{Source: src, Target: tgt}

	varPool := []string{"x", "y", "z"}
	nTgd := 1 + r.Intn(3)
	for t := 0; t < nTgd; t++ {
		// Body: 1–2 source atoms over a small shared variable pool.
		var body logic.Conjunction
		for a := 0; a < 1+r.Intn(2); a++ {
			rel := srcRels[r.Intn(nSrc)]
			terms := make([]logic.Term, rel.Arity())
			for i := range terms {
				terms[i] = logic.Var(varPool[r.Intn(len(varPool))])
			}
			body = append(body, logic.Atom{Rel: rel.Name, Terms: terms})
		}
		// The head draws from the body variables in first-occurrence
		// order, so a seed fixes the mapping.
		bvList := body.Vars()
		// Head: 1–2 target atoms using body variables and occasionally a
		// fresh existential.
		var head logic.Conjunction
		exName := fmt.Sprintf("e%d", t)
		for a := 0; a < 1+r.Intn(2); a++ {
			rel := tgtRels[r.Intn(nTgt)]
			terms := make([]logic.Term, rel.Arity())
			for i := range terms {
				if r.Intn(4) == 0 {
					terms[i] = logic.Var(exName) // existential
				} else {
					terms[i] = logic.Var(bvList[r.Intn(len(bvList))])
				}
			}
			head = append(head, logic.Atom{Rel: rel.Name, Terms: terms})
		}
		m.TGDs = append(m.TGDs, dependency.TGD{Name: fmt.Sprintf("tgd%d", t), Body: body, Head: head})
	}

	for e := 0; e < r.Intn(3); e++ {
		// Egd over one target relation of arity ≥ 2: two atoms sharing the
		// leading attributes, equating the last.
		rel := tgtRels[r.Intn(nTgt)]
		if rel.Arity() < 2 {
			continue
		}
		t1 := make([]logic.Term, rel.Arity())
		t2 := make([]logic.Term, rel.Arity())
		for i := 0; i < rel.Arity()-1; i++ {
			v := fmt.Sprintf("k%d", i)
			t1[i], t2[i] = logic.Var(v), logic.Var(v)
		}
		t1[rel.Arity()-1] = logic.Var("u")
		t2[rel.Arity()-1] = logic.Var("w")
		m.EGDs = append(m.EGDs, dependency.EGD{
			Name: fmt.Sprintf("egd%d", e),
			Body: logic.Conjunction{
				{Rel: rel.Name, Terms: t1},
				{Rel: rel.Name, Terms: t2},
			},
			X1: "u", X2: "w",
		})
	}
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("workload: generated invalid mapping: %v", err))
	}
	return m
}

// RandomInstanceFor generates a small complete source instance for the
// given mapping: nFacts facts over random source relations with short
// intervals drawn from a tiny constant pool, so that joins, overlaps,
// and egd conflicts all occur with useful frequency.
func RandomInstanceFor(r *rand.Rand, m *dependency.Mapping, nFacts int) *instance.Concrete {
	ic := instance.NewConcrete(m.Source)
	names := m.Source.Names()
	consts := []string{"a", "b", "c"}
	for i := 0; i < nFacts; i++ {
		rel, _ := m.Source.Relation(names[r.Intn(len(names))])
		args := make([]string, rel.Arity())
		for j := range args {
			args[j] = consts[r.Intn(len(consts))]
		}
		s := interval.Time(r.Intn(8))
		var iv interval.Interval
		if r.Intn(8) == 0 {
			iv = interval.Interval{Start: s, End: interval.Infinity}
		} else {
			iv = interval.MustNew(s, s+1+interval.Time(r.Intn(5)))
		}
		vals := make([]value.Value, len(args))
		for j, s := range args {
			vals[j] = paperex.C(s)
		}
		ic.MustInsert(fact.NewC(rel.Name, iv, vals...))
	}
	return ic
}
