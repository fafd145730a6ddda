package instance

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/fact"
	"repro/internal/interval"
	"repro/internal/schema"
	"repro/internal/value"
)

// refDataGroup is one data identity of the value-level grouping that
// Coalesce and IsCoalesced used before CoverIndex became the only
// grouping: its first fact and the intervals of its member facts, in
// store order.
type refDataGroup struct {
	proto fact.CFact
	ivs   []interval.Interval
}

// refDataGroups groups c's facts by data identity (fact.DataHash buckets
// confirmed with fact.SameData), in store order. It is the differential
// reference for CoverIndex.
func refDataGroups(c *Concrete) []*refDataGroup {
	buckets := make(map[uint64][]*refDataGroup)
	var order []*refDataGroup
	c.st.Each(func(rel string, tup []value.Value) bool {
		f := FromTuple(rel, tup)
		h := f.DataHash()
		var g *refDataGroup
		for _, cand := range buckets[h] {
			if cand.proto.SameData(f) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &refDataGroup{proto: f}
			buckets[h] = append(buckets[h], g)
			order = append(order, g)
		}
		g.ivs = append(g.ivs, f.T)
		return true
	})
	return order
}

// referenceIsCoalesced is IsCoalesced as it was on refDataGroups: within
// each identity, sorted intervals pairwise neither overlap nor touch.
func referenceIsCoalesced(c *Concrete) bool {
	for _, g := range refDataGroups(c) {
		ivs := g.ivs
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Compare(ivs[j]) < 0 })
		for i := 1; i < len(ivs); i++ {
			if ivs[i-1].Overlaps(ivs[i]) || ivs[i-1].Adjacent(ivs[i]) {
				return false
			}
		}
	}
	return true
}

// referenceCoalesce is Coalesce as it was on refDataGroups.
func referenceCoalesce(c *Concrete) *Concrete {
	out := NewConcreteWith(c.sch, c.Interner())
	for _, g := range refDataGroups(c) {
		set := interval.NewSet(g.ivs...)
		for _, iv := range set.Intervals() {
			out.MustInsert(g.proto.WithInterval(iv))
		}
	}
	return out
}

// referenceDiff is Diff as it was: each identity of a minus the coverage
// of the same identity in b, emitted into a fresh instance, then
// coalesced.
func referenceDiff(a, b *Concrete) *Concrete {
	bs := refDataGroups(b)
	out := NewConcrete(a.sch)
	for _, g := range refDataGroups(a) {
		rest := interval.NewSet(g.ivs...)
		for _, h := range bs {
			if h.proto.SameData(g.proto) {
				cov := interval.NewSet(h.ivs...)
				rest = rest.Subtract(&cov)
				break
			}
		}
		for _, iv := range rest.Intervals() {
			out.MustInsert(g.proto.WithInterval(iv))
		}
	}
	return referenceCoalesce(out)
}

// requireSameRows requires got and want to hold the same relations and,
// per relation, the same live rows in the same store order: row numbers,
// interned IDs and decoded values.
func requireSameRows(t *testing.T, what string, got, want *Concrete) {
	t.Helper()
	if got.Schema() != want.Schema() {
		t.Fatalf("%s: schema differs from the reference's", what)
	}
	if !slices.Equal(got.Relations(), want.Relations()) {
		t.Fatalf("%s: relations %v, reference %v", what, got.Relations(), want.Relations())
	}
	for _, rel := range got.Relations() {
		gr, wr := got.Store().Rel(rel), want.Store().Rel(rel)
		gl, wl := gr.AppendLive(nil), wr.AppendLive(nil)
		if !slices.Equal(gl, wl) {
			t.Fatalf("%s: %s live rows %v, reference %v\ngot:\n%s\nreference:\n%s", what, rel, gl, wl, got, want)
		}
		for _, row := range gl {
			if !slices.Equal(gr.Row(row), wr.Row(row)) || !slices.Equal(gr.Tuple(row), wr.Tuple(row)) {
				t.Fatalf("%s: %s row %d = %v %v, reference %v %v", what, rel, row,
					gr.Row(row), gr.Tuple(row), wr.Row(row), wr.Tuple(row))
			}
		}
	}
}

// TestCoverIndexMatchesReference checks Coalesce, IsCoalesced, Diff and
// DiffIndexed against the value-level references on random instances of
// two relations holding constants and annotated nulls of three families,
// frozen and unfrozen, with the second instance of each Diff on an
// unrelated interner, on the first's interner, or on a clone of the
// first.
func TestCoverIndexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	sch := schema.MustNew(
		schema.MustRelation("R", "a", "b"),
		schema.MustRelation("S", "a"),
	)
	randFact := func() fact.CFact {
		s := interval.Time(r.Intn(10))
		t0 := interval.Interval{Start: s, End: s + 1 + interval.Time(r.Intn(5))}
		if r.Intn(8) == 0 {
			t0.End = inf
		}
		arg := func() value.Value {
			if r.Intn(3) == 0 {
				return value.NewAnnNull(uint64(1+r.Intn(3)), t0)
			}
			return cs(string(rune('a' + r.Intn(3))))
		}
		if r.Intn(3) == 0 {
			return fact.NewC("S", t0, arg())
		}
		return fact.NewC("R", t0, arg(), arg())
	}
	fill := func(c *Concrete, n int) *Concrete {
		for i := 0; i < n; i++ {
			c.MustInsert(randFact())
		}
		return c
	}
	// maybeFreeze publishes c half the time, interner included, as
	// tdx.Instance.Freeze does: instances built on it then intern into
	// an overlay.
	maybeFreeze := func(c *Concrete) {
		if r.Intn(2) == 0 {
			c.Freeze()
			c.Interner().Freeze()
		}
	}
	for trial := 0; trial < 1000; trial++ {
		var s *schema.Schema
		if r.Intn(2) == 0 {
			s = sch
		}
		a := fill(NewConcrete(s), 1+r.Intn(14))
		maybeFreeze(a)
		var b *Concrete
		switch r.Intn(3) {
		case 0: // an unrelated interner
			b = fill(NewConcrete(s), r.Intn(14))
		case 1: // a's interner or an overlay on it, holding fragments of a's facts
			b = NewConcreteWith(s, a.Interner())
			a.EachFact(func(f fact.CFact) bool {
				if r.Intn(2) == 0 {
					for _, fr := range f.Fragment([]interval.Time{interval.Time(r.Intn(12))}) {
						if r.Intn(3) > 0 {
							b.MustInsert(fr)
						}
					}
				}
				return true
			})
			fill(b, r.Intn(5))
		default: // a clone of a
			b = fill(a.Clone(), r.Intn(5))
		}
		maybeFreeze(b)

		for _, c := range []*Concrete{a, b} {
			want := referenceCoalesce(c)
			requireSameRows(t, "Coalesce", c.Coalesce(), want)
			for _, x := range []*Concrete{c, want} {
				if got, w := x.IsCoalesced(), referenceIsCoalesced(x); got != w {
					t.Fatalf("trial %d: IsCoalesced = %v, reference %v on\n%s", trial, got, w, x)
				}
			}
		}
		requireSameRows(t, "Diff(a, b)", Diff(a, b), referenceDiff(a, b))
		requireSameRows(t, "Diff(b, a)", Diff(b, a), referenceDiff(b, a))
		ab, ba := DiffIndexed(NewCoverIndex(a), NewCoverIndex(b))
		requireSameRows(t, "DiffIndexed a∖b", ab, referenceDiff(a, b))
		requireSameRows(t, "DiffIndexed b∖a", ba, referenceDiff(b, a))
	}
}
