package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/storage"
	"repro/internal/value"
)

// fullRebuildReference replicates the pre-columnar egd rewrite: map
// every row of the store through the union-find and re-insert into a
// fresh store sharing the interner. The incremental in-place rewrite
// must produce exactly this instance.
func fullRebuildReference(st *storage.Store, uf *valueUF) *storage.Store {
	out := storage.NewStoreWith(st.Interner())
	st.EachRow(func(rel string, ids []value.ID) bool {
		nids := make([]value.ID, len(ids))
		for i, id := range ids {
			nids[i] = uf.canon(id)
		}
		out.InsertIDs(rel, nids)
		return true
	})
	return out
}

// TestIncrementalRewriteMatchesFullRebuild runs randomized union-find
// substitutions through both the incremental SubstituteIDs path and the
// full-rebuild reference and requires identical instances.
func TestIncrementalRewriteMatchesFullRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		st := storage.NewStore()
		in := st.Interner()
		var nulls []value.Value
		for i := 1; i <= 8; i++ {
			nulls = append(nulls, value.NewNull(uint64(i)))
		}
		mkVal := func() value.Value {
			if r.Intn(2) == 0 {
				return nulls[r.Intn(len(nulls))]
			}
			return value.NewConst(fmt.Sprintf("c%d", r.Intn(5)))
		}
		for i := 0; i < 5+r.Intn(20); i++ {
			st.Insert("R", []value.Value{mkVal(), mkVal()})
			if r.Intn(3) == 0 {
				st.Insert("S", []value.Value{mkVal()})
			}
		}
		// Warm an index so maintenance is exercised too.
		st.Rel("R").EnsureIndex(0)

		uf := newValueUF(in)
		for m := 0; m < 1+r.Intn(4); m++ {
			a, b := mkVal(), mkVal()
			ida, ok1 := in.Lookup(a)
			idb, ok2 := in.Lookup(b)
			if !ok1 || !ok2 {
				continue
			}
			ca, cb := uf.canon(ida), uf.canon(idb)
			if ca == cb {
				continue
			}
			if err := uf.union(ca, cb); err != nil {
				continue // constant clash: skip this merge
			}
		}
		want := fullRebuildReference(st, uf)
		st.SubstituteIDs(uf.substituted(), uf.canon)
		if got, w := st.String(), want.String(); got != w {
			t.Fatalf("trial %d: incremental rewrite diverges from full rebuild:\n got:\n%s\nwant:\n%s", trial, got, w)
		}
		if st.Size() != want.Size() {
			t.Fatalf("trial %d: size %d vs rebuild %d", trial, st.Size(), want.Size())
		}
	}
}

// TestChaseIncrementalRewriteSemantics runs full concrete chases on an
// egd-heavy workload and cross-checks that the batch result (built on
// incremental rewrites) matches the stepwise result and satisfies the
// mapping — the instance-level regression guard for the in-place path.
func TestChaseIncrementalRewriteSemantics(t *testing.T) {
	m := paperex.EmploymentMapping()
	iv, c := paperex.Iv, paperex.C
	ic := instance.NewConcrete(m.Source)
	ic.MustInsert(fact.NewC("E", iv(2010, 2020), c("Ada"), c("IBM")))
	ic.MustInsert(fact.NewC("E", iv(2012, 2018), c("Bob"), c("IBM")))
	ic.MustInsert(fact.NewC("S", iv(2011, 2015), c("Ada"), c("18k")))
	ic.MustInsert(fact.NewC("S", iv(2013, 2017), c("Bob"), c("13k")))

	batch, bs, err := Concrete(ic, m, &Options{Egd: EgdBatch})
	if err != nil {
		t.Fatal(err)
	}
	step, _, err := Concrete(ic, m, &Options{Egd: EgdStepwise})
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Abstract().EqualTo(step.Abstract()) {
		t.Fatalf("batch (incremental rewrites) and stepwise disagree:\n%s\nvs\n%s", batch, step)
	}
	if bs.EgdMerges > 0 && bs.RowsRewritten == 0 {
		t.Fatalf("merges happened (%d) but no rows were rewritten", bs.EgdMerges)
	}
}

// TestRewriteConcreteIsIncremental is the acceptance check that
// the egd rewrite no longer rebuilds the whole store per egd round: on a
// target where only a few facts contain the merged null, the touched-row
// count must equal those few facts, not the instance size.
func TestRewriteConcreteIsIncremental(t *testing.T) {
	// One egd over P equates the second attribute of co-timed P facts.
	// The target holds 2 violating P facts plus many unrelated Q facts
	// that must never be touched by the rewrite.
	mp := &dependency.Mapping{
		TGDs: []dependency.TGD{},
		EGDs: []dependency.EGD{{
			Name: "same-v",
			Body: logic.Conjunction{
				logic.NewAtom("P", logic.Var("k"), logic.Var("v1")),
				logic.NewAtom("P", logic.Var("k"), logic.Var("v2")),
			},
			X1: "v1", X2: "v2",
		}},
	}
	tgt := instance.NewConcrete(nil)
	span := interval.MustNew(0, 10)
	gen := &value.NullGen{}
	n1, n2 := gen.FreshAnn(span), gen.FreshAnn(span)
	tgt.MustInsert(fact.CFact{Rel: "P", T: span, Args: []value.Value{value.NewConst("k"), n1}})
	tgt.MustInsert(fact.CFact{Rel: "P", T: span, Args: []value.Value{value.NewConst("k"), n2}})
	bystanders := 400
	for i := 0; i < bystanders; i++ {
		tgt.MustInsert(fact.CFact{Rel: "Q", T: span, Args: []value.Value{value.NewConst(fmt.Sprintf("q%d", i))}})
	}

	cm, err := CompileMapping(mp)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := EgdPhase(tgt, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EgdMerges != 1 {
		t.Fatalf("EgdMerges = %d, want 1", stats.EgdMerges)
	}
	// Only the row holding the non-canonical null is rewritten; the
	// canonical one and all 400 bystanders stay untouched.
	if stats.RowsRewritten != 1 {
		t.Fatalf("RowsRewritten = %d, want 1 (incremental), not ~%d (full rebuild)", stats.RowsRewritten, bystanders+2)
	}
	if out.Len() != bystanders+1 {
		t.Fatalf("collapsed instance has %d facts, want %d", out.Len(), bystanders+1)
	}
}
