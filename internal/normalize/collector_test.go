package normalize

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/storage"
)

// TestCollectorRowsMatchesSortReference checks the collector's inline
// sort and dedup against sort.Slice on (relation, row) followed by
// adjacent dedup, over random row multisets with repeats across 1–3
// relations.
func TestCollectorRowsMatchesSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rels := []string{"B", "A", "C"}
	c := newMatchCollector(storage.NewStore())
	for trial := 0; trial < 3000; trial++ {
		nrel := 1 + r.Intn(3)
		rows := make([]logic.RowRef, 1+r.Intn(8))
		for i := range rows {
			rows[i] = logic.RowRef{Rel: rels[r.Intn(nrel)], Row: r.Intn(5)}
		}
		want := make([]factRef, len(rows))
		for i, w := range rows {
			want[i] = factRef{w.Rel, w.Row}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].rel != want[j].rel {
				return want[i].rel < want[j].rel
			}
			return want[i].row < want[j].row
		})
		want = slices.Compact(want)
		if got := c.rows(&logic.IDMatch{Rows: rows}); !slices.Equal(got, want) {
			t.Fatalf("rows(%v) = %v, want %v", rows, got, want)
		}
		// keep deduplicates by content, whatever order the rows came in.
		slices.Reverse(rows)
		kept, _ := c.keep(c.rows(&logic.IDMatch{Rows: rows}))
		if kept != nil && (!slices.Equal(kept, want) || cap(kept) != len(want)) {
			t.Fatalf("kept %v (cap %d), want an exact copy of %v", kept, cap(kept), want)
		}
		if _, isNew := c.keep(c.rows(&logic.IDMatch{Rows: rows})); isNew {
			t.Fatalf("set %v kept twice", want)
		}
	}
}

// TestMatchSetsAllocsFlatInMatches guards the per-match path: on an
// instance where every match but one has an empty intersection or
// repeats a set already kept, matchSets must allocate no more at 512
// such matches per pass than at 8.
func TestMatchSetsAllocsFlatInMatches(t *testing.T) {
	tv := logic.Var(dependency.TemporalVar)
	phi := logic.Conjunction{
		{Rel: "R", Terms: []logic.Term{logic.Var("x"), tv}},
		{Rel: "S", Terms: []logic.Term{logic.Var("y"), tv}},
	}
	phis := []logic.Conjunction{phi, phi} // the second pass only repeats sets
	allocs := func(m int) float64 {
		ic := instance.NewConcrete(nil)
		ic.MustInsert(fact.NewC("R", paperex.Iv(0, 10), paperex.C("a")))
		ic.MustInsert(fact.NewC("S", paperex.Iv(5, 15), paperex.C("b")))
		for j := 0; j < m; j++ {
			ic.MustInsert(fact.NewC("S", paperex.Iv(interval.Time(100+j), interval.Time(101+j)), paperex.C(fmt.Sprint("s", j))))
		}
		ic.Freeze()
		return testing.AllocsPerRun(20, func() {
			sets, err := matchSets(context.Background(), ic, phis)
			if err != nil || len(sets) != 1 {
				t.Fatalf("matchSets = %v, %v; want one set", sets, err)
			}
		})
	}
	// The slack absorbs the race detector's bookkeeping; a per-match
	// allocation adds over a thousand.
	if small, large := allocs(8), allocs(512); large > small+4 {
		t.Fatalf("matchSets: %v allocs with 512 dropped matches per pass vs %v with 8: the per-match path allocates", large, small)
	}
}
