package logic

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/interval"
	"repro/internal/storage"
	"repro/internal/value"
)

// deltaKey renders a match for set comparison: rows plus bindings.
func deltaKey(m *IDMatch) string {
	s := ""
	for _, r := range m.Rows {
		s += fmt.Sprintf("%s:%d;", r.Rel, r.Row)
	}
	s += "|"
	for i, n := range m.names {
		s += fmt.Sprintf("%s=%d;", n, m.bind[i])
	}
	return s
}

// randomDeltaWorld builds a small random store, a conjunction over it,
// and a delta set marking a random subset of rows.
func randomDeltaWorld(r *rand.Rand) (*storage.Store, Conjunction, *DeltaSet) {
	st := storage.NewStore()
	vals := make([]value.Value, 6)
	for i := range vals {
		vals[i] = value.NewConst(fmt.Sprintf("c%d", i))
	}
	rels := []string{"R", "S", "T"}
	for _, rel := range rels {
		n := 5 + r.Intn(15)
		for i := 0; i < n; i++ {
			st.Insert(rel, []value.Value{vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]})
		}
	}
	varNames := []string{"x", "y", "z", "w"}
	nAtoms := 1 + r.Intn(3)
	conj := make(Conjunction, 0, nAtoms)
	for i := 0; i < nAtoms; i++ {
		terms := make([]Term, 2)
		for j := range terms {
			if r.Intn(4) == 0 {
				terms[j] = Lit(vals[r.Intn(len(vals))])
			} else {
				terms[j] = Var(varNames[r.Intn(len(varNames))])
			}
		}
		conj = append(conj, NewAtom(rels[r.Intn(len(rels))], terms...))
	}
	delta := NewDeltaSet()
	for _, rel := range rels {
		n := st.Rel(rel).NumRows()
		for row := 0; row < n; row++ {
			if r.Intn(4) == 0 {
				delta.Add(rel, row)
			}
		}
	}
	return st, conj, delta
}

// TestDeltaEnumerationMatchesFilter cross-checks ForEachIDsDelta against
// the reference semantics: all homomorphisms of the conjunction that
// touch at least one delta row, each exactly once.
func TestDeltaEnumerationMatchesFilter(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		st, conj, delta := randomDeltaWorld(r)

		want := map[string]int{}
		ForEachIDs(st, conj, nil, func(m *IDMatch) bool {
			touches := false
			for _, rr := range m.Rows {
				if delta.Contains(rr.Rel, rr.Row) {
					touches = true
					break
				}
			}
			if touches {
				want[deltaKey(m)]++
			}
			return true
		})

		got := map[string]int{}
		ForEachIDsDelta(st, conj, delta, func(stage int, m *IDMatch) bool {
			if !delta.Contains(m.Rows[stage].Rel, m.Rows[stage].Row) {
				t.Fatalf("seed %d: stage %d witness not in delta", seed, stage)
			}
			for i := 0; i < stage; i++ {
				if delta.Contains(m.Rows[i].Rel, m.Rows[i].Row) {
					t.Fatalf("seed %d: atom %d before stage %d lands on a delta row", seed, i, stage)
				}
			}
			got[deltaKey(m)]++
			return true
		})

		if len(got) != len(want) {
			t.Fatalf("seed %d (%v): got %d distinct matches, want %d", seed, conj, len(got), len(want))
		}
		for k := range want {
			if got[k] != 1 {
				t.Fatalf("seed %d (%v): match %s enumerated %d times, want exactly once", seed, conj, k, got[k])
			}
		}
	}
}

// TestDeltaSetRowsSorted pins the DeltaSet ordering contract that makes
// the delta enumeration order deterministic.
func TestDeltaSetRowsSorted(t *testing.T) {
	d := NewDeltaSet()
	for _, row := range []int{9, 3, 7, 3, 1, 12} {
		d.Add("R", row)
	}
	rows := d.Rows("R")
	if !sort.IntsAreSorted(rows) {
		t.Fatalf("rows not sorted: %v", rows)
	}
	if len(rows) != 5 {
		t.Fatalf("duplicate rows retained: %v", rows)
	}
	d.AddRange("R", 20, 23)
	if got := len(d.Rows("R")); got != 8 {
		t.Fatalf("AddRange: got %d rows, want 8", got)
	}
	if !d.Contains("R", 21) || d.Contains("R", 23) || d.Contains("S", 1) {
		t.Fatal("Contains misreports membership")
	}
	if d.Len() != 8 {
		t.Fatalf("Len = %d, want 8", d.Len())
	}
	if rels := d.Relations(); len(rels) != 1 || rels[0] != "R" {
		t.Fatalf("Relations = %v", rels)
	}
}

// TestForEachIDsDeltaAllocs: a delta stage binds atom k by reading the
// relation's columns and sweeps its residual plan in the plan's own
// scratch, so an enumeration allocates per stage and call, never per
// delta row: over 1,000 frozen delta rows of R, the one-atom
// conjunction R(x, y) and the join R(x, y), S(y, z), pruned by overlap
// and not, each stay under 50 allocations.
func TestForEachIDsDeltaAllocs(t *testing.T) {
	st := storage.NewStore()
	for i := 0; i < 1000; i++ {
		s := interval.Time(i % 50)
		st.Insert("R", []value.Value{cv(fmt.Sprintf("a%d", i)), cv(fmt.Sprintf("b%d", i%7)), ivv(s, s+3)})
	}
	for j := 0; j < 7; j++ {
		for k := 0; k < 3; k++ {
			s := interval.Time(20 * k)
			st.Insert("S", []value.Value{cv(fmt.Sprintf("b%d", j)), cv(fmt.Sprintf("c%d", k)), ivv(s, s+10)})
		}
	}
	st.Freeze()
	delta := NewDeltaSet()
	delta.AddRange("R", 0, 1000)
	one := Conjunction{NewAtom("R", Var("x"), Var("y"), Var("t"))}
	join := Conjunction{NewAtom("R", Var("x"), Var("y"), Var("t")), NewAtom("S", Var("y"), Var("z"), Var("t"))}.RenameTemporal("t")
	cases := []struct {
		name    string
		conj    Conjunction
		overlap bool
		want    int
	}{
		{"R(x, y)", one, false, 1000},
		{"R(x, y), S(y, z)", join, false, 3000},
		// Row i of R meets one of its three S rows when i%50 falls in
		// [0, 10), [18, 30) or [38, 50): 34 rows in 50.
		{"R(x, y), S(y, z) pruned", join, true, 1000 * 34 / 50},
	}
	for _, c := range cases {
		n, pruned := 0, 0
		count := func(int, *IDMatch) bool {
			n++
			return true
		}
		allocs := testing.AllocsPerRun(20, func() {
			n, pruned = 0, 0
			if c.overlap {
				ForEachIDsDeltaOverlapping(st, c.conj, delta, count, func() bool {
					pruned++
					return true
				})
			} else {
				ForEachIDsDelta(st, c.conj, delta, count)
			}
		})
		if n != c.want {
			t.Fatalf("%s: enumerated %d matches, want %d", c.name, n, c.want)
		}
		if c.overlap && n+pruned != 3000 {
			t.Fatalf("%s: %d matches and %d pruned rows, want 3000 candidates", c.name, n, pruned)
		}
		if allocs >= 50 {
			t.Fatalf("%s: ForEachIDsDelta allocated %.0f objects over 1000 delta rows, want < 50", c.name, allocs)
		}
	}
}
