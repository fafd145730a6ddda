package normalize

import (
	"context"
	"errors"
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

// pollCtx is a live context whose Done channel reads as closed from its
// second call on: a pass's first poll, before it enumerates, sees it
// live, and its first poll from inside the enumeration sees it done.
type pollCtx struct {
	context.Context
	polls int
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *pollCtx) Done() <-chan struct{} {
	c.polls++
	if c.polls >= 2 {
		return closedDone
	}
	return nil
}

func (c *pollCtx) Err() error {
	if c.polls >= 2 {
		return context.Canceled
	}
	return nil
}

// TestCancelWhilePruning: the rows the join rejects for their interval
// count toward the collector's poll, so a pass that completes no match
// still sees its context end. R(x, t), S(x, t) over 300 pairwise
// disjoint rows each has 90,000 candidate pairs and no match set; the
// full and the delta enumeration must both stop at their second poll
// with the context's error.
func TestCancelWhilePruning(t *testing.T) {
	ic := instance.NewConcrete(nil)
	for i := 0; i < 300; i++ {
		ic.MustInsert(fact.NewC("R", paperex.Iv(interval.Time(i), interval.Time(i+1)), paperex.C("a")))
		ic.MustInsert(fact.NewC("S", paperex.Iv(interval.Time(1000+i), interval.Time(1001+i)), paperex.C("a")))
	}
	ic.Freeze()
	tv := logic.Var(dependency.TemporalVar)
	phis := []logic.Conjunction{{
		{Rel: "R", Terms: []logic.Term{logic.Var("x"), tv}},
		{Rel: "S", Terms: []logic.Term{logic.Var("x"), tv}},
	}}
	if sets, err := matchSets(context.Background(), ic, phis); err != nil || len(sets) != 0 {
		t.Fatalf("matchSets = %v, %v; want no set", sets, err)
	}

	ctx := &pollCtx{Context: context.Background()}
	if _, err := matchSets(ctx, ic, phis); !errors.Is(err, context.Canceled) || ctx.polls != 2 {
		t.Fatalf("matchSets under a context done from its 2nd poll: err %v after %d polls, want context.Canceled after 2", err, ctx.polls)
	}
	delta := logic.NewDeltaSet()
	delta.AddRange("R", 0, 300)
	ctx = &pollCtx{Context: context.Background()}
	if _, err := DeltaAligned(ctx, ic, phis, delta); !errors.Is(err, context.Canceled) || ctx.polls != 2 {
		t.Fatalf("DeltaAligned under a context done from its 2nd poll: err %v after %d polls, want context.Canceled after 2", err, ctx.polls)
	}
}
