package logic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// TestBruteForceAfterSubstitution cross-checks plan execution against
// the brute-force enumerator on stores that have been rewritten in place
// by SubstituteIDs — the post-egd shape with dead rows, maintained
// posting lists, and non-dense blocks. The engine must enumerate exactly
// the homomorphisms of the live rows.
func TestBruteForceAfterSubstitution(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	rels := []string{"R", "S"}
	mkVal := func() value.Value {
		if r.Intn(3) == 0 {
			return value.NewNull(uint64(r.Intn(5) + 1))
		}
		return cv(fmt.Sprintf("c%d", r.Intn(5)))
	}
	for trial := 0; trial < 200; trial++ {
		st := storage.NewStore()
		for i := 0; i < 4+r.Intn(12); i++ {
			st.Insert(rels[r.Intn(2)], []value.Value{mkVal(), mkVal()})
		}
		// Warm some indexes so the substitution exercises posting-list
		// maintenance, then rewrite a couple of IDs in place.
		if rel := st.Rel("R"); rel != nil {
			rel.EnsureIndex(0)
		}
		in := st.Interner()
		for round := 0; round < 2; round++ {
			from, to := mkVal(), mkVal()
			fid, ok1 := in.Lookup(from)
			tid, ok2 := in.Lookup(to)
			if !ok1 || !ok2 || fid == tid {
				continue
			}
			st.SubstituteIDs([]value.ID{fid}, func(id value.ID) value.ID {
				if id == fid {
					return tid
				}
				return id
			})
		}
		// Snapshot the live rows for the brute-force reference.
		type row struct {
			rel string
			tup []value.Value
		}
		var rows []row
		st.Each(func(rel string, tup []value.Value) bool {
			rows = append(rows, row{rel, tup})
			return true
		})

		varNames := []string{"x", "y", "z"}
		mkTerm := func() Term {
			switch r.Intn(4) {
			case 0:
				return Lit(cv(fmt.Sprintf("c%d", r.Intn(5))))
			case 1:
				return Lit(value.NewNull(uint64(r.Intn(5) + 1)))
			default:
				return Var(varNames[r.Intn(3)])
			}
		}
		conj := Conjunction{}
		for i := 0; i < 1+r.Intn(2); i++ {
			conj = append(conj, NewAtom(rels[r.Intn(2)], mkTerm(), mkTerm()))
		}

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
		// Every witness row the engine reports must be live and must
		// actually unify with its atom.
		ForEach(st, conj, nil, func(m Match) bool {
			for i, ref := range m.Rows {
				rel := st.Rel(ref.Rel)
				if !rel.Alive(ref.Row) {
					t.Fatalf("trial %d: witness row %v is dead", trial, ref)
				}
				nb := m.Binding.Clone()
				if !bruteUnify(conj[i], rel.Tuple(ref.Row), nb) {
					t.Fatalf("trial %d: witness row %v does not unify with %v", trial, ref, conj[i])
				}
			}
			return true
		})
	}
}

// TestFrozenPlanConcurrentEnumeration runs the same plan from 16
// goroutines against one frozen store; under -race this proves frozen
// plans share no mutable state (and skip epoch revalidation safely),
// which is what lets concurrent runs share one frozen source.
func TestFrozenPlanConcurrentEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	st := storage.NewStore()
	c := func(i int) value.Value { return cv(fmt.Sprintf("c%d", i)) }
	for i := 0; i < 200; i++ {
		st.Insert("A", []value.Value{c(r.Intn(12)), c(r.Intn(8))})
		st.Insert("B", []value.Value{c(r.Intn(8)), c(r.Intn(6))})
	}
	conj := Conjunction{NewAtom("A", Var("x"), Var("y")), NewAtom("B", Var("y"), Var("z"))}
	st.Freeze()
	count := func() int {
		n := 0
		ForEachIDs(st, conj, nil, func(*IDMatch) bool { n++; return true })
		return n
	}
	want := count()
	if want == 0 {
		t.Fatal("test conjunction has no matches")
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				if n := count(); n != want {
					t.Errorf("goroutine %d: %d matches, want %d", g, n, want)
				}
			}
		}()
	}
	wg.Wait()
}
