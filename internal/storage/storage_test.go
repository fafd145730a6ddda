package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/interval"
	"repro/internal/value"
)

func tup(vals ...string) []value.Value {
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		out[i] = value.NewConst(v)
	}
	return out
}

func TestInsertDedup(t *testing.T) {
	s := NewStore()
	if !s.Insert("E", tup("Ada", "IBM")) {
		t.Fatal("first insert must add")
	}
	if s.Insert("E", tup("Ada", "IBM")) {
		t.Fatal("duplicate insert must not add")
	}
	if !s.Insert("E", tup("Ada", "Google")) {
		t.Fatal("distinct tuple must add")
	}
	if s.Rel("E").Len() != 2 || s.Size() != 2 {
		t.Fatalf("Len=%d Size=%d", s.Rel("E").Len(), s.Size())
	}
	if !s.Contains("E", tup("Ada", "IBM")) || s.Contains("E", tup("Bob", "IBM")) {
		t.Fatal("Contains broken")
	}
	if s.Contains("F", tup("x")) {
		t.Fatal("Contains on absent relation")
	}
}

func TestZeroValueStore(t *testing.T) {
	var s Store
	if !s.Insert("R", tup("a")) {
		t.Fatal("zero-value store must accept inserts")
	}
	if s.Rel("R") == nil {
		t.Fatal("relation missing")
	}
}

func TestIntervalValuedTuples(t *testing.T) {
	// The concrete view stores the temporal attribute as an interval value
	// in the last position; distinct intervals give distinct tuples.
	s := NewStore()
	ivA := value.NewInterval(interval.MustNew(2012, 2014))
	ivB := value.NewInterval(interval.MustNew(2014, interval.Infinity))
	s.Insert("E", []value.Value{value.NewConst("Ada"), value.NewConst("IBM"), ivA})
	s.Insert("E", []value.Value{value.NewConst("Ada"), value.NewConst("IBM"), ivB})
	if s.Rel("E").Len() != 2 {
		t.Fatal("interval must participate in identity")
	}
	rows := s.Rel("E").Candidates(2, ivA)
	if len(rows) != 1 {
		t.Fatalf("Candidates on interval position = %v", rows)
	}
}

func TestCandidatesAndIndexes(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.Insert("R", tup(fmt.Sprintf("k%d", i%10), fmt.Sprintf("v%d", i)))
	}
	r := s.Rel("R")
	if r.HasIndex(0) {
		t.Fatal("index must be lazy")
	}
	rows := r.Candidates(0, value.NewConst("k3"))
	if !r.HasIndex(0) {
		t.Fatal("index must exist after first use")
	}
	if len(rows) != 10 {
		t.Fatalf("Candidates = %d rows, want 10", len(rows))
	}
	for _, row := range rows {
		if r.Tuple(row)[0] != value.NewConst("k3") {
			t.Fatalf("wrong row %d: %v", row, r.Tuple(row))
		}
	}
	// Incremental maintenance after the index is built.
	s.Insert("R", tup("k3", "fresh"))
	if got := len(r.Candidates(0, value.NewConst("k3"))); got != 11 {
		t.Fatalf("index not maintained on insert: %d", got)
	}
	if got := r.Candidates(0, value.NewConst("nope")); len(got) != 0 {
		t.Fatalf("absent key returned rows: %v", got)
	}
}

func TestEachOrderAndEarlyStop(t *testing.T) {
	s := NewStore()
	s.Insert("B", tup("1"))
	s.Insert("A", tup("2"))
	s.Insert("A", tup("3"))
	var seen []string
	s.Each(func(rel string, tup []value.Value) bool {
		seen = append(seen, rel+":"+tup[0].Str)
		return true
	})
	want := []string{"A:2", "A:3", "B:1"}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("Each order = %v", seen)
		}
	}
	count := 0
	s.Each(func(string, []value.Value) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewStore()
	s.Insert("R", tup("a"))
	c := s.Clone()
	c.Insert("R", tup("b"))
	c.Insert("S", tup("x"))
	if s.Rel("R").Len() != 1 || s.Rel("S") != nil {
		t.Fatal("Clone shares state")
	}
	if !c.Contains("R", tup("a")) {
		t.Fatal("Clone lost data")
	}
}

func TestRewrite(t *testing.T) {
	s := NewStore()
	n := value.NewNull(1)
	m := value.NewNull(2)
	s.Insert("R", []value.Value{n, value.NewConst("x")})
	s.Insert("R", []value.Value{m, value.NewConst("x")})
	// Identify null 2 with null 1: the tuples collapse.
	out := s.Rewrite(func(_ string, tup []value.Value) []value.Value {
		nt := make([]value.Value, len(tup))
		for i, v := range tup {
			if v == m {
				nt[i] = n
			} else {
				nt[i] = v
			}
		}
		return nt
	})
	if out.Rel("R").Len() != 1 {
		t.Fatalf("Rewrite did not dedup: %v", out.String())
	}
	if s.Rel("R").Len() != 2 {
		t.Fatal("Rewrite mutated the source store")
	}
}

func TestRelationsSorted(t *testing.T) {
	s := NewStore()
	s.Insert("Z", tup("1"))
	s.Insert("A", tup("1"))
	s.Insert("M", tup("1"))
	got := s.Relations()
	if len(got) != 3 || got[0] != "A" || got[1] != "M" || got[2] != "Z" {
		t.Fatalf("Relations = %v", got)
	}
}

// randTuple draws a mixed-kind tuple: constants, plain and projected
// nulls, annotated nulls, and interval values — everything the chase
// stores.
func randTuple(r *rand.Rand) []value.Value {
	s := interval.Time(r.Intn(30))
	iv := interval.MustNew(s, s+1+interval.Time(r.Intn(10)))
	pick := func() value.Value {
		switch r.Intn(5) {
		case 0:
			return value.NewConst(fmt.Sprintf("c%d", r.Intn(12)))
		case 1:
			return value.NewNull(uint64(r.Intn(12) + 1))
		case 2:
			return value.NewProjectedNull(uint64(r.Intn(12)+1), s)
		case 3:
			return value.NewAnnNull(uint64(r.Intn(12)+1), iv)
		default:
			return value.NewInterval(iv)
		}
	}
	tp := make([]value.Value, 1+r.Intn(4))
	for i := range tp {
		tp[i] = pick()
	}
	return tp
}

// stringKey replicates the pre-interning dedup key (every value rendered
// through String, joined with '|'), the reference the ID-hash dedup must
// agree with. Value.String is injective across kinds (constants verbatim,
// N7, N7@2013, N7^[s,e), [s,e)), so string identity is value identity.
func stringKey(rel string, tp []value.Value) string {
	k := rel
	for _, v := range tp {
		k += "|" + v.String()
	}
	return k
}

// TestDedupMatchesStringKeyReference checks, on a randomized mixed-kind
// corpus, that the interned ID-row dedup accepts and rejects exactly the
// same inserts as the old string-key implementation.
func TestDedupMatchesStringKeyReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s := NewStore()
	ref := make(map[string]bool)
	rels := []string{"R", "S"}
	distinct := 0
	for i := 0; i < 20_000; i++ {
		rel := rels[r.Intn(2)]
		tp := randTuple(r)
		k := stringKey(rel, tp)
		added := s.Insert(rel, tp)
		if added == ref[k] {
			t.Fatalf("iteration %d: insert(%s)=%v but reference seen=%v", i, k, added, ref[k])
		}
		if added {
			distinct++
		}
		ref[k] = true
		if !s.Contains(rel, tp) {
			t.Fatalf("inserted tuple not found: %s", k)
		}
	}
	if s.Size() != distinct || s.Size() != len(ref) {
		t.Fatalf("size %d, added %d, reference %d", s.Size(), distinct, len(ref))
	}
}

func TestRowsAndInsertIDs(t *testing.T) {
	in := value.NewInterner()
	s := NewStore()
	s2 := NewStoreWith(in)
	if s.Interner() == s2.Interner() || s2.Interner() != in {
		t.Fatal("interner wiring broken")
	}
	s2.Insert("R", tup("a", "b"))
	r := s2.Rel("R")
	ids := r.Row(0)
	if len(ids) != 2 || in.Resolve(ids[0]) != value.NewConst("a") {
		t.Fatalf("Row = %v", ids)
	}
	// InsertIDs into a store sharing the interner: identical row dedups,
	// permuted row is new, and its tuple resolves correctly.
	s3 := NewStoreWith(in)
	if !s3.InsertIDs("R", append([]value.ID(nil), ids...)) {
		t.Fatal("first InsertIDs must add")
	}
	if s3.InsertIDs("R", append([]value.ID(nil), ids...)) {
		t.Fatal("duplicate InsertIDs must not add")
	}
	if !s3.InsertIDs("R", []value.ID{ids[1], ids[0]}) {
		t.Fatal("permuted row must be distinct")
	}
	if got := s3.Rel("R").Tuple(1); got[0] != value.NewConst("b") || got[1] != value.NewConst("a") {
		t.Fatalf("resolved tuple = %v", got)
	}
	if !s3.Contains("R", tup("a", "b")) || !s3.Contains("R", tup("b", "a")) {
		t.Fatal("Contains after InsertIDs broken")
	}
}

func TestInsertRowOfAndValueAt(t *testing.T) {
	in := value.NewInterner()
	src := NewStoreWith(in)
	src.Insert("R", tup("a", "b"))
	src.InsertIDs("R", []value.ID{in.Intern(value.NewConst("c")), in.Intern(value.NewConst("d"))})
	r := src.Rel("R")
	// ValueAt reads both the decoded row and the raw-ID row, and leaves
	// the raw row undecoded.
	if r.ValueAt(0, 1) != value.NewConst("b") || r.ValueAt(1, 0) != value.NewConst("c") || r.tuples[1] != nil {
		t.Fatalf("ValueAt: %v %v, cache %v", r.ValueAt(0, 1), r.ValueAt(1, 0), r.tuples[1])
	}
	if r.Arity(1) != 2 {
		t.Fatalf("Arity = %d", r.Arity(1))
	}
	dst := NewStoreWith(in)
	for row := 0; row < 2; row++ {
		if !dst.InsertRowOf(r, row) || dst.InsertRowOf(r, row) {
			t.Fatalf("row %d: want one add, then a duplicate", row)
		}
	}
	d := dst.Rel("R")
	if &d.Tuple(0)[0] != &r.Tuple(0)[0] {
		t.Fatal("InsertRowOf did not share the decoded tuple")
	}
	if !dst.Contains("R", tup("a", "b")) || !dst.Contains("R", tup("c", "d")) || d.Len() != 2 {
		t.Fatalf("copied store:\n%s", dst)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("InsertRowOf across interners did not panic")
			}
		}()
		NewStore().InsertRowOf(r, 0)
	}()
	dst.Freeze()
	expectFrozenPanic(t, "InsertRowOf", func() { dst.InsertRowOf(r, 0) })
}

func TestEachRowMatchesEach(t *testing.T) {
	s := NewStore()
	s.Insert("B", tup("1", "2"))
	s.Insert("A", tup("3"))
	in := s.Interner()
	var fromRows [][]value.Value
	s.EachRow(func(rel string, ids []value.ID) bool {
		fromRows = append(fromRows, in.ResolveAll(nil, ids))
		return true
	})
	var fromTuples [][]value.Value
	s.Each(func(rel string, tp []value.Value) bool {
		fromTuples = append(fromTuples, tp)
		return true
	})
	if len(fromRows) != len(fromTuples) {
		t.Fatalf("EachRow %d rows, Each %d", len(fromRows), len(fromTuples))
	}
	for i := range fromRows {
		for j := range fromRows[i] {
			if fromRows[i][j] != fromTuples[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, fromRows[i], fromTuples[i])
			}
		}
	}
}

func TestQuickDedupSemantics(t *testing.T) {
	// Inserting random tuples with duplicates: store size equals the
	// number of distinct tuples, and every inserted tuple is found.
	r := rand.New(rand.NewSource(13))
	s := NewStore()
	ref := make(map[string]bool)
	for i := 0; i < 5000; i++ {
		tp := tup(fmt.Sprintf("a%d", r.Intn(20)), fmt.Sprintf("b%d", r.Intn(20)))
		k := "R|" + tp[0].Str + "|" + tp[1].Str
		added := s.Insert("R", tp)
		if added == ref[k] {
			t.Fatalf("dedup mismatch for %v (added=%v, seen=%v)", tp, added, ref[k])
		}
		ref[k] = true
		if !s.Contains("R", tp) {
			t.Fatalf("inserted tuple not found: %v", tp)
		}
	}
	if s.Rel("R").Len() != len(ref) {
		t.Fatalf("size %d != distinct %d", s.Rel("R").Len(), len(ref))
	}
}

func TestEpochBumpsOnMutation(t *testing.T) {
	st := NewStore()
	cst := value.NewConst
	st.Insert("R", []value.Value{cst("a"), cst("x")})
	r := st.Rel("R")
	e0 := r.Epoch()
	// A duplicate insert is a no-op... but still bumps? No: dedup short-
	// circuits before any column write, so the epoch must NOT move (plans
	// stay valid across failed inserts).
	st.Insert("R", []value.Value{cst("a"), cst("x")})
	if r.Epoch() != e0 {
		t.Fatal("duplicate insert moved the epoch")
	}
	st.Insert("R", []value.Value{cst("b"), cst("x")})
	if r.Epoch() == e0 {
		t.Fatal("insert did not move the epoch")
	}
	e1 := r.Epoch()
	// Lazy caches are reads, not mutations.
	r.EnsureIndex(0)
	r.CandidatesID(0, st.Interner().Intern(cst("a")))
	r.Tuple(0)
	if r.Epoch() != e1 {
		t.Fatal("lazy index/decode builds moved the epoch")
	}
	// Substitution that touches a row bumps it.
	aID := st.Interner().Intern(cst("a"))
	bID := st.Interner().Intern(cst("b"))
	n := st.SubstituteIDs([]value.ID{aID}, func(id value.ID) value.ID {
		if id == aID {
			return bID
		}
		return id
	})
	if n == 0 || r.Epoch() == e1 {
		t.Fatalf("substitution (touched %d rows) did not move the epoch", n)
	}
	e2 := r.Epoch()
	// A substitution with no affected rows leaves it alone.
	ghost := st.Interner().Intern(cst("never-stored"))
	if st.SubstituteIDs([]value.ID{ghost}, func(id value.ID) value.ID { return id }) != 0 || r.Epoch() != e2 {
		t.Fatal("no-op substitution moved the epoch")
	}
}
