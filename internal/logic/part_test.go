package logic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// partStore builds a randomized store over three relations with enough
// shared constants that conjunctions join non-trivially.
func partStore(seed int64, rows int) *storage.Store {
	r := rand.New(rand.NewSource(seed))
	st := storage.NewStore()
	c := func(i int) value.Value { return value.NewConst(fmt.Sprintf("c%d", i)) }
	for i := 0; i < rows; i++ {
		st.Insert("A", []value.Value{c(r.Intn(12)), c(r.Intn(8))})
		st.Insert("B", []value.Value{c(r.Intn(8)), c(r.Intn(6))})
		if i%3 == 0 {
			st.Insert("C", []value.Value{c(r.Intn(6))})
		}
	}
	return st
}

// collect gathers the full match stream of a sharded enumeration as
// printable row-witness/binding strings.
func collect(st *storage.Store, conj Conjunction, part, parts int) []string {
	var out []string
	ForEachIDsPart(st, conj, nil, part, parts, func(m *IDMatch) bool {
		s := ""
		for _, r := range m.Rows {
			s += fmt.Sprintf("%s:%d|", r.Rel, r.Row)
		}
		for _, name := range conj.Vars() {
			id, _ := m.ID(name)
			s += fmt.Sprintf("%s=%d|", name, id)
		}
		out = append(out, s)
		return true
	})
	return out
}

// TestForEachIDsPartConcatenation is the contract the parallel chase
// builds on: concatenating shards 0..parts-1 reproduces the unsharded
// enumeration exactly, in order, for any shard count.
func TestForEachIDsPartConcatenation(t *testing.T) {
	conjs := []Conjunction{
		{NewAtom("A", Var("x"), Var("y"))},
		{NewAtom("A", Var("x"), Var("y")), NewAtom("B", Var("y"), Var("z"))},
		{NewAtom("A", Var("x"), Var("y")), NewAtom("B", Var("y"), Var("z")), NewAtom("C", Var("z"))},
		{NewAtom("A", Const("c3"), Var("y")), NewAtom("B", Var("y"), Var("z"))},
	}
	for seed := int64(1); seed <= 3; seed++ {
		st := partStore(seed, 150)
		for ci, conj := range conjs {
			full := collect(st, conj, 0, 1)
			for _, parts := range []int{2, 3, 5, 8, 64, len(full) + 7} {
				var concat []string
				for part := 0; part < parts; part++ {
					concat = append(concat, collect(st, conj, part, parts)...)
				}
				if len(concat) != len(full) {
					t.Fatalf("seed=%d conj=%d parts=%d: %d matches, want %d", seed, ci, parts, len(concat), len(full))
				}
				for i := range full {
					if concat[i] != full[i] {
						t.Fatalf("seed=%d conj=%d parts=%d: match %d differs:\n%s\nvs\n%s", seed, ci, parts, i, concat[i], full[i])
					}
				}
			}
		}
	}
}

// TestForEachIDsPartMultiConcatenation pins the multi-conjunction form:
// per conjunction, concatenating a worker's shard streams across ranks
// reproduces the unsharded per-conjunction enumeration exactly, and
// each worker visits its shard of every conjunction in conjs order.
func TestForEachIDsPartMultiConcatenation(t *testing.T) {
	conjs := []Conjunction{
		{NewAtom("A", Var("x"), Var("y")), NewAtom("B", Var("y"), Var("z"))},
		{NewAtom("A", Var("x"), Var("y"))},
		{NewAtom("B", Var("y"), Var("z")), NewAtom("C", Var("z"))},
	}
	collectMulti := func(st *storage.Store, part, parts int) ([][]string, []int) {
		out := make([][]string, len(conjs))
		var order []int
		ForEachIDsPartMulti(st, conjs, part, parts, func(ci int, m *IDMatch) bool {
			s := ""
			for _, r := range m.Rows {
				s += fmt.Sprintf("%s:%d|", r.Rel, r.Row)
			}
			for _, name := range conjs[ci].Vars() {
				id, _ := m.ID(name)
				s += fmt.Sprintf("%s=%d|", name, id)
			}
			out[ci] = append(out[ci], s)
			if n := len(order); n == 0 || order[n-1] != ci {
				order = append(order, ci)
			}
			return true
		})
		return out, order
	}
	for seed := int64(1); seed <= 3; seed++ {
		st := partStore(seed, 150)
		full := make([][]string, len(conjs))
		for ci, conj := range conjs {
			full[ci] = collect(st, conj, 0, 1)
		}
		for _, parts := range []int{1, 2, 3, 5, 8, 64} {
			concat := make([][]string, len(conjs))
			for part := 0; part < parts; part++ {
				shard, order := collectMulti(st, part, parts)
				for i := 1; i < len(order); i++ {
					if order[i] < order[i-1] {
						t.Fatalf("seed=%d parts=%d part=%d: conjunctions visited out of order: %v", seed, parts, part, order)
					}
				}
				for ci := range conjs {
					concat[ci] = append(concat[ci], shard[ci]...)
				}
			}
			for ci := range conjs {
				if len(concat[ci]) != len(full[ci]) {
					t.Fatalf("seed=%d parts=%d conj=%d: %d matches, want %d", seed, parts, ci, len(concat[ci]), len(full[ci]))
				}
				for i := range full[ci] {
					if concat[ci][i] != full[ci][i] {
						t.Fatalf("seed=%d parts=%d conj=%d: match %d differs:\n%s\nvs\n%s", seed, parts, ci, i, concat[ci][i], full[ci][i])
					}
				}
			}
		}
	}
}

// TestForEachIDsPartMultiStops asserts that fn returning false aborts
// the whole sweep — remaining matches and remaining conjunctions
// included.
func TestForEachIDsPartMultiStops(t *testing.T) {
	st := partStore(2, 100)
	conjs := []Conjunction{
		{NewAtom("A", Var("x"), Var("y"))},
		{NewAtom("B", Var("y"), Var("z"))},
	}
	calls := 0
	ForEachIDsPartMulti(st, conjs, 0, 1, func(ci int, m *IDMatch) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("sweep continued after fn returned false: %d calls", calls)
	}
}

func TestForEachIDsPartEdges(t *testing.T) {
	st := partStore(9, 40)
	conj := Conjunction{NewAtom("A", Var("x"), Var("y"))}
	// Out-of-range shards enumerate nothing.
	if got := collect(st, conj, -1, 4); got != nil {
		t.Fatalf("part=-1 enumerated %d matches", len(got))
	}
	if got := collect(st, conj, 4, 4); got != nil {
		t.Fatalf("part=parts enumerated %d matches", len(got))
	}
	if got := collect(st, conj, 0, 0); got != nil {
		t.Fatalf("parts=0 enumerated %d matches", len(got))
	}
	// The empty conjunction's single empty match belongs to shard 0 only.
	n := 0
	for part := 0; part < 5; part++ {
		ForEachIDsPart(st, nil, nil, part, 5, func(*IDMatch) bool { n++; return true })
	}
	if n != 1 {
		t.Fatalf("empty conjunction matched %d times across shards, want 1", n)
	}
}

// TestFrozenPlanConcurrentEnumeration runs the same plan from 16
// goroutines against one frozen store; under -race this proves frozen
// plans share no mutable state (and skip epoch revalidation safely).
func TestFrozenPlanConcurrentEnumeration(t *testing.T) {
	st := partStore(5, 200)
	conj := Conjunction{NewAtom("A", Var("x"), Var("y")), NewAtom("B", Var("y"), Var("z"))}
	st.Freeze()
	want := len(collect(st, conj, 0, 1))
	if want == 0 {
		t.Fatal("test conjunction has no matches")
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				n := 0
				ForEachIDs(st, conj, nil, func(*IDMatch) bool { n++; return true })
				if n != want {
					t.Errorf("goroutine %d: %d matches, want %d", g, n, want)
				}
			}
		}()
	}
	wg.Wait()
}
