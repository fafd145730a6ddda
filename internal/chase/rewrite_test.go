package chase

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// modelRow is one row number of a relation as the in-place rewrite must
// leave it: its IDs, and whether it is live. A rewritten row that
// collapses into a live row dies but keeps its number.
type modelRow struct {
	ids  []value.ID
	live bool
}

// modelInsert adds ids to rows unless an identical live row is present,
// reporting whether it was added.
func modelInsert(rows []modelRow, ids []value.ID) ([]modelRow, bool) {
	for _, mr := range rows {
		if mr.live && slices.Equal(mr.ids, ids) {
			return rows, false
		}
	}
	return append(rows, modelRow{ids: ids, live: true}), true
}

// modelSubstitute applies canon to rows the way SubstituteIDs must and
// returns the rewritten row numbers, ascending: every live row holding an
// ID canon moves. Rewritten rows are reattached in ascending order, and
// one equal to an untouched live row or to an earlier surviving rewritten
// row dies.
func modelSubstitute(rows []modelRow, canon func(value.ID) value.ID) []int {
	var changed []int
	isChanged := make(map[int]bool)
	for i, mr := range rows {
		if !mr.live {
			continue
		}
		for _, id := range mr.ids {
			if canon(id) != id {
				changed = append(changed, i)
				isChanged[i] = true
				break
			}
		}
	}
	for _, i := range changed {
		nids := make([]value.ID, len(rows[i].ids))
		for p, id := range rows[i].ids {
			nids[p] = canon(id)
		}
		rows[i].ids = nids
	}
	for _, i := range changed {
		for j, mr := range rows {
			if j == i || !mr.live || (isChanged[j] && j > i) {
				continue
			}
			if slices.Equal(mr.ids, rows[i].ids) {
				rows[i].live = false
				break
			}
		}
	}
	return changed
}

// TestIncrementalRewriteMatchesFullRebuild runs 1–4 successive rounds of
// randomized union-find substitutions through SubstituteIDsTouched over
// 1–3 relations of arity 1–3, with posting lists warmed on none, some or
// all positions, and a few inserts between rounds. After each round it
// requires, against the full-rebuild reference and a by-row-number model:
// the rows handed to the hook (ascending per relation, exactly the live
// rows holding an ID that changes), the returned count, every row's
// liveness and every live row's IDs by row number, the same instance as
// the full rebuild, and each built position's posting lists equal to a
// scan of the live rows.
func TestIncrementalRewriteMatchesFullRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		st := storage.NewStore()
		in := st.Interner()
		mkVal := func() value.Value {
			if r.Intn(2) == 0 {
				return value.NewNull(uint64(1 + r.Intn(6)))
			}
			return value.NewConst(fmt.Sprintf("c%d", r.Intn(4)))
		}
		arity := make(map[string]int)
		var rels []string
		for i := 0; i < 1+r.Intn(3); i++ {
			name := fmt.Sprintf("R%d", i)
			rels = append(rels, name)
			arity[name] = 1 + r.Intn(3)
		}
		model := make(map[string][]modelRow)
		insert := func(rel string) {
			tup := make([]value.Value, arity[rel])
			ids := make([]value.ID, len(tup))
			for p := range tup {
				tup[p] = mkVal()
				ids[p] = in.Intern(tup[p])
			}
			var want bool
			model[rel], want = modelInsert(model[rel], ids)
			if got := st.Insert(rel, tup); got != want {
				t.Fatalf("trial %d: Insert(%s, %v) = %v, model %v", trial, rel, tup, got, want)
			}
		}
		for _, rel := range rels {
			for i := 0; i < 1+r.Intn(12); i++ {
				insert(rel)
			}
		}
		warm := r.Intn(3) // none, some, or all positions
		for _, rel := range rels {
			for p := 0; p < arity[rel]; p++ {
				if warm == 2 || (warm == 1 && r.Intn(2) == 0) {
					st.Rel(rel).EnsureIndex(p)
				}
			}
		}

		for round, rounds := 0, 1+r.Intn(4); round < rounds; round++ {
			if round > 0 {
				for i := 0; i < r.Intn(4); i++ {
					insert(rels[r.Intn(len(rels))])
				}
			}
			uf := newValueUF(in)
			for m := 0; m < 1+r.Intn(4); m++ {
				ida, ok1 := in.Lookup(mkVal())
				idb, ok2 := in.Lookup(mkVal())
				if !ok1 || !ok2 || uf.canon(ida) == uf.canon(idb) {
					continue
				}
				_ = uf.union(uf.canon(ida), uf.canon(idb)) // a constant clash skips this merge
			}
			want := fullRebuildReference(st, uf)
			wantTouched := make(map[string][]int)
			total := 0
			for _, rel := range rels {
				if rows := modelSubstitute(model[rel], uf.canon); len(rows) > 0 {
					wantTouched[rel] = rows
					total += len(rows)
				}
			}
			gotTouched := make(map[string][]int)
			n := st.SubstituteIDsTouched(uf.substituted(), uf.canon, func(rel string, row int) {
				gotTouched[rel] = append(gotTouched[rel], row)
			})
			where := fmt.Sprintf("trial %d round %d", trial, round)
			if !reflect.DeepEqual(gotTouched, wantTouched) {
				t.Fatalf("%s: hook rows %v, want %v", where, gotTouched, wantTouched)
			}
			if n != total {
				t.Fatalf("%s: returned %d rewritten rows, want %d", where, n, total)
			}
			for _, rel := range rels {
				checkRewrittenRel(t, where, st.Rel(rel), model[rel])
			}
			if got, w := st.String(), want.String(); got != w {
				t.Fatalf("%s: incremental rewrite diverges from full rebuild:\n got:\n%s\nwant:\n%s", where, got, w)
			}
			if st.Size() != want.Size() {
				t.Fatalf("%s: size %d vs rebuild %d", where, st.Size(), want.Size())
			}
		}
	}
}

// checkRewrittenRel requires rel's rows to match the model by row number
// (liveness, and IDs of live rows), and every built position's posting
// lists to equal a scan of the live rows for every interned ID.
func checkRewrittenRel(t *testing.T, where string, rel *storage.Rel, rows []modelRow) {
	t.Helper()
	if rel.NumRows() != len(rows) {
		t.Fatalf("%s: %s has %d row numbers, model %d", where, rel.Name(), rel.NumRows(), len(rows))
	}
	for i, mr := range rows {
		if rel.Alive(i) != mr.live {
			t.Fatalf("%s: %s row %d alive %v, model %v", where, rel.Name(), i, rel.Alive(i), mr.live)
		}
		if mr.live && !slices.Equal(rel.Row(i), mr.ids) {
			t.Fatalf("%s: %s row %d = %v, model %v", where, rel.Name(), i, rel.Row(i), mr.ids)
		}
	}
	for p := 0; p < rel.Arity(); p++ {
		if !rel.HasIndex(p) {
			continue
		}
		for id := value.ID(0); int(id) < rel.Interner().Len(); id++ {
			var scan []int
			for i, mr := range rows {
				if mr.live && mr.ids[p] == id {
					scan = append(scan, i)
				}
			}
			if got := rel.CandidatesID(p, id); !slices.Equal(got, scan) {
				t.Fatalf("%s: %s posting list (%d, %d) = %v, live rows %v", where, rel.Name(), p, id, got, scan)
			}
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
