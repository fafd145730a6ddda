package logic

import (
	"slices"
	"sort"

	"repro/internal/instance"
	"repro/internal/storage"
	"repro/internal/value"
)

// DeltaSet marks, per relation, a set of "delta" rows of one store: the
// rows the incremental chase considers new or dirty. Membership is
// O(1), and Add keeps a sorted view per relation, so every read method
// is free of writes and any number of goroutines may read one set
// concurrently while nobody adds to it. The zero value is not usable —
// construct with NewDeltaSet.
type DeltaSet struct {
	member map[string]map[int]bool
	sorted map[string][]int // per-relation marked rows, ascending
}

// NewDeltaSet returns an empty delta set.
func NewDeltaSet() *DeltaSet {
	return &DeltaSet{member: make(map[string]map[int]bool), sorted: make(map[string][]int)}
}

// Add marks one row of a relation as delta. Adding a row twice is a
// no-op. Rows arriving in ascending order, the shape of an appended
// suffix, extend the sorted view in O(1); an out-of-order row is
// inserted in place.
func (d *DeltaSet) Add(rel string, row int) {
	m := d.member[rel]
	if m == nil {
		m = make(map[int]bool)
		d.member[rel] = m
	}
	if m[row] {
		return
	}
	m[row] = true
	s := d.sorted[rel]
	if n := len(s); n == 0 || s[n-1] < row {
		d.sorted[rel] = append(s, row)
		return
	}
	i, _ := slices.BinarySearch(s, row)
	d.sorted[rel] = slices.Insert(s, i, row)
}

// AddRange marks rows [from, to) of a relation as delta — the shape of
// a freshly appended suffix.
func (d *DeltaSet) AddRange(rel string, from, to int) {
	for row := from; row < to; row++ {
		d.Add(rel, row)
	}
}

// Contains reports whether the row is marked.
func (d *DeltaSet) Contains(rel string, row int) bool {
	return d.member[rel][row]
}

// Rows returns the marked rows of the relation in ascending order. The
// returned slice is owned by the set and valid until the next Add; do
// not mutate it.
func (d *DeltaSet) Rows(rel string) []int {
	return d.sorted[rel]
}

// Len returns the total number of marked rows across relations.
func (d *DeltaSet) Len() int {
	n := 0
	for _, m := range d.member {
		n += len(m)
	}
	return n
}

// Relations returns the relation names with at least one marked row, in
// lexicographic order.
func (d *DeltaSet) Relations() []string {
	out := make([]string, 0, len(d.member))
	for rel, m := range d.member {
		if len(m) > 0 {
			out = append(out, rel)
		}
	}
	sort.Strings(out)
	return out
}

// ForEachIDsDelta enumerates exactly the homomorphisms of conj into st
// in which at least one atom's witness row is in delta — the semi-naive
// frontier of an incremental round — each exactly once, by per-atom
// delta/base plan splitting. The enumeration is organized in stages,
// one per atom: stage k yields the homomorphisms whose first
// delta-marked witness atom (in conjunction order) is atom k — atom k's
// candidates are restricted to the delta rows of its relation, atoms
// before k must land on non-delta rows, atoms after k are unrestricted.
// Every delta-involving homomorphism belongs to exactly one stage, so
// the union over stages enumerates each exactly once, and a
// homomorphism touching no delta row is never enumerated.
//
// Stages run in atom order, and within a stage the delta candidate rows
// are visited in ascending row order, so the enumeration order is a
// function of the store and the delta set. fn receives the stage index
// and returning false stops the sweep. The IDMatch is transient: Rows
// are in conjunction order and the bindings cover every conjunction
// variable.
//
// st must not be mutated while the enumeration runs (collect first,
// write after), exactly as with ForEachIDs.
func ForEachIDsDelta(st *storage.Store, conj Conjunction, delta *DeltaSet, fn func(stage int, m *IDMatch) bool) {
	forEachDelta(st, conj, delta, false, fn, nil)
}

// ForEachIDsDeltaOverlapping is ForEachIDsDelta kept, as
// ForEachIDsOverlapping keeps ForEachIDs, to the homomorphisms whose
// witness rows' intervals have a non-empty common intersection: each
// sweep of a stage starts from the interval of its delta row, the
// survivors come in ForEachIDsDelta's order, and pruned (nil for none)
// is called once per rejected row. Incremental normalization is the only
// caller.
func ForEachIDsDeltaOverlapping(st *storage.Store, conj Conjunction, delta *DeltaSet, fn func(stage int, m *IDMatch) bool, pruned func() bool) {
	forEachDelta(st, conj, delta, true, fn, pruned)
}

// forEachDelta is the stage sweep behind both delta entries; overlap
// selects the pruned one. A stage compiles its residual plan once and
// reruns it per delta row in the plan's own scratch, so a stage
// allocates the same whatever the number of delta rows.
func forEachDelta(st *storage.Store, conj Conjunction, delta *DeltaSet, overlap bool, fn func(stage int, m *IDMatch) bool, pruned func() bool) {
	if len(conj) == 0 || delta == nil {
		return
	}
	in := st.Interner()
	// Any atom over a missing relation kills the whole conjunction.
	for _, a := range conj {
		if st.Rel(a.Rel) == nil {
			return
		}
	}
	names := conj.Vars()
	slotOf := make(map[string]int, len(names))
	for i, n := range names {
		slotOf[n] = i
	}
	full := make([]value.ID, len(names))
	rows := make([]RowRef, len(conj))
	im := IDMatch{names: names}

	for k := range conj {
		a := conj[k]
		rel := st.Rel(a.Rel)
		cand := delta.Rows(a.Rel)
		if len(cand) == 0 || rel.Arity() != len(a.Terms) {
			continue
		}
		cols := rel.Cols()

		// Pre-resolve atom k's literals; a literal the store has never
		// interned cannot match any row.
		lits := make([]value.ID, len(a.Terms))
		litOK := true
		for j, t := range a.Terms {
			if t.IsVar {
				lits[j] = value.NoID
				continue
			}
			id, ok := in.Lookup(t.Val)
			if !ok {
				litOK = false
				break
			}
			lits[j] = id
		}
		if !litOK {
			continue
		}

		// Compile the residual conjunction (conj minus atom k) once per
		// stage; its init slots are seeded per delta row below.
		rest := make(Conjunction, 0, len(conj)-1)
		rest = append(rest, conj[:k]...)
		rest = append(rest, conj[k+1:]...)
		var rp plan
		var restSlot []int // rest slot → full slot
		var seeded []int   // rest slots seeded from atom k, reset after each sweep
		if len(rest) > 0 {
			compile(&rp, st, rest, nil)
			if rp.empty {
				continue
			}
			if overlap {
				rp.pruneDisjoint(pruned)
			}
			restSlot = make([]int, len(rp.names))
			for i, n := range rp.names {
				restSlot[i] = slotOf[n]
			}
			seeded = make([]int, 0, len(restSlot))
		}

		// sweep takes one residual match of the delta row atom k is
		// bound to.
		var row int
		sweep := func(m *IDMatch) bool {
			// Stage discipline: atoms before k must be non-delta (a hom
			// whose first delta atom precedes k belongs there).
			for i := 0; i < k; i++ {
				if delta.Contains(rest[i].Rel, m.Rows[i].Row) {
					return true
				}
			}
			for i := 0; i < k; i++ {
				rows[i] = m.Rows[i]
			}
			rows[k] = RowRef{Rel: a.Rel, Row: row}
			for i := k; i < len(rest); i++ {
				rows[i+1] = m.Rows[i]
			}
			out := full
			for ri, fi := range restSlot {
				out[fi] = m.bind[ri]
			}
			im.Rows = rows
			im.bind = out
			return fn(k, &im)
		}

		for _, row = range cand {
			if row >= rel.NumRows() || !rel.Alive(row) {
				continue
			}
			// Bind atom k against the row: literals must match, repeated
			// variables must unify.
			for i := range full {
				full[i] = value.NoID
			}
			ok := true
			for j, t := range a.Terms {
				id := cols[j][row]
				if !t.IsVar {
					if lits[j] != id {
						ok = false
						break
					}
					continue
				}
				s := slotOf[t.Name]
				if full[s] != value.NoID && full[s] != id {
					ok = false
					break
				}
				full[s] = id
			}
			if !ok {
				continue
			}

			if len(rest) == 0 {
				rows[k] = RowRef{Rel: a.Rel, Row: row}
				im.Rows = rows
				im.bind = full
				if !fn(k, &im) {
					return
				}
				continue
			}

			// Seed the residual plan with atom k's bindings and interval,
			// and sweep it; resetting the seeded slots keeps rp reusable
			// for the next delta row.
			seeded = seeded[:0]
			for ri, fi := range restSlot {
				if full[fi] != value.NoID {
					rp.init[ri] = full[fi]
					seeded = append(seeded, ri)
				}
			}
			if overlap {
				rp.acc[0] = instance.IntervalAt(rel, row)
			}
			cont := rp.run(sweep)
			for _, ri := range seeded {
				rp.init[ri] = value.NoID
			}
			if !cont {
				return
			}
		}
	}
}
