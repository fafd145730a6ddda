package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/interval"
	"repro/internal/value"
)

// refRel is the row-major reference model the columnar store must agree
// with: a plain ordered list of live value tuples with first-wins dedup,
// replicating the PR 1 semantics of Len / lookupRow / index probes.
type refRel struct {
	tuples [][]value.Value
}

func valuesEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (r *refRel) find(tup []value.Value) int {
	for i, got := range r.tuples {
		if valuesEqual(got, tup) {
			return i
		}
	}
	return -1
}

func (r *refRel) insert(tup []value.Value) bool {
	if r.find(tup) >= 0 {
		return false
	}
	r.tuples = append(r.tuples, tup)
	return true
}

// candidates counts the live tuples with v at position pos.
func (r *refRel) candidates(pos int, v value.Value) int {
	n := 0
	for _, tup := range r.tuples {
		if pos < len(tup) && tup[pos] == v {
			n++
		}
	}
	return n
}

// substitute applies the value mapping to every tuple and re-dedups,
// keeping set semantics.
func (r *refRel) substitute(mapv func(value.Value) value.Value) {
	old := r.tuples
	r.tuples = nil
	for _, tup := range old {
		nt := make([]value.Value, len(tup))
		for i, v := range tup {
			nt[i] = mapv(v)
		}
		r.insert(nt)
	}
}

func (r *refRel) sortedKeys() []string {
	out := make([]string, 0, len(r.tuples))
	for _, tup := range r.tuples {
		out = append(out, tupleString(tup))
	}
	sort.Strings(out)
	return out
}

// relSortedKeys renders the live rows of a columnar relation, sorted.
func relSortedKeys(r *Rel) []string {
	var out []string
	r.EachLive(func(row int) bool {
		out = append(out, tupleString(r.Tuple(row)))
		return true
	})
	sort.Strings(out)
	return out
}

// checkAgainstRef verifies every observable of the columnar relation
// against the reference: live count, membership, per-position candidate
// counts with row verification, posting-list ordering and liveness, and
// the decode of every live row.
func checkAgainstRef(t *testing.T, r *Rel, ref *refRel, probes [][]value.Value) {
	t.Helper()
	if r == nil {
		if len(ref.tuples) != 0 {
			t.Fatalf("relation missing but reference has %d tuples", len(ref.tuples))
		}
		return
	}
	if r.Len() != len(ref.tuples) {
		t.Fatalf("Len = %d, reference %d", r.Len(), len(ref.tuples))
	}
	got, want := relSortedKeys(r), ref.sortedKeys()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("live tuples diverge at %d: %q vs %q", i, got[i], want[i])
		}
	}
	// Membership both ways, including interned-row lookup.
	for _, tup := range ref.tuples {
		if !r.Contains(tup) {
			t.Fatalf("reference tuple missing: %v", tup)
		}
		ids, ok := r.in.LookupAll(nil, tup)
		if !ok || r.lookupRow(ids) < 0 {
			t.Fatalf("lookupRow missed reference tuple %v", tup)
		}
	}
	for _, tup := range probes {
		if r.Contains(tup) != (ref.find(tup) >= 0) {
			t.Fatalf("Contains(%v) = %v disagrees with reference", tup, r.Contains(tup))
		}
	}
	// Index probes on every position and probe value.
	for pos := 0; pos < 4; pos++ {
		for _, tup := range probes {
			for _, v := range tup {
				rows := candidates(r, pos, v)
				for i, row := range rows {
					if i > 0 && rows[i-1] >= row {
						t.Fatalf("posting list not strictly ascending: %v", rows)
					}
					if !r.Alive(row) {
						t.Fatalf("posting list holds dead row %d", row)
					}
					if r.Tuple(row)[pos] != v {
						t.Fatalf("candidate row %d has %v at %d, want %v", row, r.Tuple(row)[pos], pos, v)
					}
				}
				if want := ref.candidates(pos, v); len(rows) != want {
					t.Fatalf("Candidates(%d, %v) = %d rows, reference %d", pos, v, len(rows), want)
				}
			}
		}
	}
}

// TestColumnarMatchesRowMajorReference drives a random workload of
// inserts, membership probes, index probes, and ID substitutions through
// the columnar store and the row-major reference model in lockstep.
func TestColumnarMatchesRowMajorReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	pool := func() value.Value {
		switch r.Intn(4) {
		case 0:
			return value.NewConst(fmt.Sprintf("c%d", r.Intn(8)))
		case 1:
			return value.NewNull(uint64(r.Intn(8) + 1))
		case 2:
			return value.NewAnnNull(uint64(r.Intn(6)+1), interval.MustNew(interval.Time(r.Intn(4)), interval.Time(10+r.Intn(4))))
		default:
			return value.NewInterval(interval.MustNew(interval.Time(r.Intn(5)), interval.Time(6+r.Intn(5))))
		}
	}
	randTup := func(arity int) []value.Value {
		tup := make([]value.Value, arity)
		for i := range tup {
			tup[i] = pool()
		}
		return tup
	}
	for trial := 0; trial < 60; trial++ {
		st := NewStore()
		refs := map[string]*refRel{"R": {}, "S": {}}
		rels := []string{"R", "S"}
		// A relation has one arity; the two may differ, so probes of
		// one relation's arity also check the other's rejects them.
		arity := map[string]int{"R": 1 + r.Intn(3), "S": 1 + r.Intn(3)}
		var probes [][]value.Value
		for step := 0; step < 120; step++ {
			rel := rels[r.Intn(2)]
			tup := randTup(arity[rel])
			if len(probes) < 25 {
				probes = append(probes, tup)
			}
			added := st.Insert(rel, tup)
			wantAdded := refs[rel].insert(tup)
			if added != wantAdded {
				t.Fatalf("trial %d step %d: Insert(%s, %v) = %v, reference %v", trial, step, rel, tup, added, wantAdded)
			}
			// Occasionally probe mid-stream so indexes get built early and
			// then maintained incrementally through inserts and rewrites.
			if step%17 == 0 {
				st.Rel(rel).EnsureIndex(r.Intn(3))
			}
		}
		for _, rel := range rels {
			checkAgainstRef(t, st.Rel(rel), refs[rel], probes)
		}

		// Substitution rounds: map a few interned values onto others and
		// compare against the reference's value-level rewrite.
		for round := 0; round < 3; round++ {
			in := st.Interner()
			mapping := make(map[value.ID]value.ID)
			vmapping := make(map[value.Value]value.Value)
			for i := 0; i < 1+r.Intn(4); i++ {
				from, to := pool(), pool()
				fid, ok1 := in.Lookup(from)
				tid, ok2 := in.Lookup(to)
				if !ok1 || !ok2 || fid == tid {
					continue
				}
				if _, dup := mapping[fid]; dup {
					continue
				}
				mapping[fid] = tid
				vmapping[from] = to
			}
			subs := make([]value.ID, 0, len(mapping))
			for id := range mapping {
				subs = append(subs, id)
			}
			canon := func(id value.ID) value.ID {
				if nid, ok := mapping[id]; ok {
					return nid
				}
				return id
			}
			touched := st.SubstituteIDs(subs, canon)
			for _, ref := range refs {
				ref.substitute(func(v value.Value) value.Value {
					if nv, ok := vmapping[v]; ok {
						return nv
					}
					return v
				})
			}
			if touched < 0 {
				t.Fatalf("negative touch count")
			}
			for _, rel := range rels {
				checkAgainstRef(t, st.Rel(rel), refs[rel], probes)
			}
		}
	}
}

// TestSubstituteTouchesOnlyAffectedRows pins the incremental-rewrite
// contract: the number of rewritten rows equals the number of rows
// containing a substituted ID, not the store size.
func TestSubstituteTouchesOnlyAffectedRows(t *testing.T) {
	st := NewStore()
	for i := 0; i < 500; i++ {
		st.Insert("R", tup(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)))
	}
	n1 := value.NewNull(1)
	st.Insert("R", []value.Value{n1, value.NewConst("x")})
	st.Insert("R", []value.Value{value.NewConst("y"), n1})
	in := st.Interner()
	from, _ := in.Lookup(n1)
	to := in.Intern(value.NewConst("z"))
	touched := st.SubstituteIDs([]value.ID{from}, func(id value.ID) value.ID {
		if id == from {
			return to
		}
		return id
	})
	if touched != 2 {
		t.Fatalf("touched %d rows, want exactly the 2 containing the null", touched)
	}
	if st.Rel("R").Len() != 502 {
		t.Fatalf("Len = %d after substitution, want 502", st.Rel("R").Len())
	}
	if !st.Contains("R", tup("z", "x")) || !st.Contains("R", tup("y", "z")) {
		t.Fatal("substituted rows missing")
	}
	if st.Contains("R", []value.Value{n1, value.NewConst("x")}) {
		t.Fatal("pre-substitution row still present")
	}
}

// TestSubstituteCollapsesDuplicates exercises the validity bitmap: rows
// that become identical after substitution die, and every observable
// (Len, Each, postings, dedup) skips them.
func TestSubstituteCollapsesDuplicates(t *testing.T) {
	st := NewStore()
	n1, n2 := value.NewNull(1), value.NewNull(2)
	x := value.NewConst("x")
	st.Insert("R", []value.Value{n1, x})
	st.Insert("R", []value.Value{n2, x})
	st.Insert("R", []value.Value{x, x})
	rel := st.Rel("R")
	rel.EnsureIndex(0) // build the index before substituting
	in := st.Interner()
	id1, _ := in.Lookup(n1)
	id2, _ := in.Lookup(n2)
	touched := st.SubstituteIDs([]value.ID{id2}, func(id value.ID) value.ID {
		if id == id2 {
			return id1
		}
		return id
	})
	if touched != 1 {
		t.Fatalf("touched = %d, want 1", touched)
	}
	if rel.Len() != 2 || rel.NumRows() != 3 {
		t.Fatalf("Len = %d NumRows = %d, want 2 live of 3 physical", rel.Len(), rel.NumRows())
	}
	if rel.Alive(1) {
		t.Fatal("collapsed row still alive")
	}
	count := 0
	st.Each(func(string, []value.Value) bool { count++; return true })
	if count != 2 {
		t.Fatalf("Each visited %d rows, want 2", count)
	}
	if got := candidates(rel, 0, n1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("posting list after collapse = %v, want [0]", got)
	}
	if st.Insert("R", []value.Value{n1, x}) {
		t.Fatal("dedup readmitted a live row")
	}
	if !st.Insert("R", []value.Value{n2, x}) {
		t.Fatal("the dead row's old value must be insertable again")
	}
}

// TestIntersectPostings checks the sorted-list intersection on both the
// merge and the galloping path.
func TestIntersectPostings(t *testing.T) {
	cases := []struct{ a, b, want []int }{
		{[]int{1, 3, 5}, []int{2, 3, 5, 9}, []int{3, 5}},
		{[]int{}, []int{1, 2}, nil},
		{[]int{4}, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, []int{4}},
		{[]int{7, 40}, func() []int {
			out := make([]int, 200)
			for i := range out {
				out[i] = i
			}
			return out
		}(), []int{7, 40}},
	}
	for i, c := range cases {
		got := IntersectPostings(nil, c.a, c.b)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v want %v", i, got, c.want)
			}
		}
	}
}

// TestCloneIsolatesSubstitution ensures a clone's columns are
// independent: substituting the clone leaves the original intact.
func TestCloneIsolatesSubstitution(t *testing.T) {
	st := NewStore()
	n1 := value.NewNull(1)
	st.Insert("R", []value.Value{n1, value.NewConst("x")})
	cl := st.Clone()
	in := st.Interner()
	from, _ := in.Lookup(n1)
	to := in.Intern(value.NewConst("z"))
	cl.SubstituteIDs([]value.ID{from}, func(id value.ID) value.ID {
		if id == from {
			return to
		}
		return id
	})
	if !cl.Contains("R", tup("z", "x")) || cl.Contains("R", []value.Value{n1, value.NewConst("x")}) {
		t.Fatal("clone not substituted")
	}
	if !st.Contains("R", []value.Value{n1, value.NewConst("x")}) || st.Contains("R", tup("z", "x")) {
		t.Fatal("substituting the clone mutated the original")
	}
}
