package storage

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/interval"
	"repro/internal/value"
)

// freezeStore builds a small mixed store for the freeze tests.
func freezeStore() *Store {
	st := NewStore()
	for i := 0; i < 64; i++ {
		iv := interval.MustNew(interval.Time(i%10), interval.Time(i%10+3))
		st.Insert("R", []value.Value{
			value.NewConst(string(rune('a' + i%7))),
			value.NewAnnNull(uint64(i%5+1), iv),
			value.NewInterval(iv),
		})
		st.Insert("S", []value.Value{value.NewConst(string(rune('a' + i%3)))})
	}
	return st
}

// expectFrozenPanic runs fn and asserts it panics with the frozen-store
// message.
func expectFrozenPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s on a frozen store did not panic", what)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "frozen") {
			t.Fatalf("%s panic message %v does not mention the freeze", what, r)
		}
	}()
	fn()
}

func TestFreezeMakesWritesPanic(t *testing.T) {
	st := freezeStore()
	st.Freeze()
	if !st.Frozen() || !st.Rel("R").Frozen() {
		t.Fatal("store not marked frozen")
	}
	tup := []value.Value{value.NewConst("zz"), value.NewConst("zz"), value.NewInterval(interval.MustNew(0, 1))}
	expectFrozenPanic(t, "Insert", func() { st.Insert("R", tup) })
	expectFrozenPanic(t, "Insert into a new relation", func() { st.Insert("Fresh", tup) })
	expectFrozenPanic(t, "InsertIDs", func() { st.InsertIDs("R", []value.ID{0, 1, 2}) })
	expectFrozenPanic(t, "SubstituteIDs", func() {
		st.SubstituteIDs([]value.ID{0}, func(id value.ID) value.ID { return id })
	})
}

func TestFreezeIsIdempotentAndKeepsEpoch(t *testing.T) {
	st := freezeStore()
	r := st.Rel("R")
	epoch := r.Epoch()
	st.Freeze()
	st.Freeze()
	// Reads must not move the epoch or mutate anything observable.
	r.EachLive(func(row int) bool {
		_ = r.Tuple(row)
		_ = r.Row(row)
		return true
	})
	if !st.Contains("R", r.Tuple(0)) {
		t.Fatal("frozen store lost a tuple")
	}
	_ = r.CandidatesID(0, 0)
	_ = candidates(r, 1, value.NewConst("nope"))
	r.EnsureIndex(99) // past every arity: must be a no-op on a frozen rel
	if r.HasIndex(99) {
		t.Fatal("EnsureIndex built an index on a frozen relation")
	}
	if got := r.Epoch(); got != epoch {
		t.Fatalf("epoch moved %d -> %d under frozen reads", epoch, got)
	}
}

// TestFreezeConcurrentReaders hammers one frozen store from 16
// goroutines through every read path; run under -race this proves the
// frozen read paths are mutation-free. The epoch is asserted unchanged.
func TestFreezeConcurrentReaders(t *testing.T) {
	st := freezeStore()
	st.Freeze()
	r := st.Rel("R")
	epoch := r.Epoch()
	want := st.String()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				n := 0
				r.EachLive(func(row int) bool {
					tup := r.Tuple(row)
					if !st.Contains("R", tup) {
						t.Error("frozen Contains lost a stored tuple")
						return false
					}
					n++
					return true
				})
				if n != r.Len() {
					t.Errorf("EachLive visited %d rows, want %d", n, r.Len())
				}
				for pos := 0; pos < 3; pos++ {
					for id := value.ID(0); id < 8; id++ {
						_ = r.CandidatesID(pos, id)
					}
				}
				st.EachRow(func(rel string, ids []value.ID) bool { return true })
				if got := st.String(); got != want {
					t.Error("concurrent String render diverged")
				}
				cl := st.Clone()
				if cl.Frozen() {
					t.Error("clone of a frozen store is frozen")
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Epoch(); got != epoch {
		t.Fatalf("epoch moved %d -> %d under 16 concurrent readers", epoch, got)
	}
}

func TestCloneOfFrozenIsMutable(t *testing.T) {
	st := freezeStore()
	st.Freeze()
	before := st.Size()
	cl := st.Clone()
	if !cl.Insert("R", []value.Value{value.NewConst("new"), value.NewConst("new"), value.NewInterval(interval.MustNew(0, 1))}) {
		t.Fatal("insert into the clone failed")
	}
	cl.SubstituteIDs([]value.ID{0}, func(id value.ID) value.ID { return id })
	if st.Size() != before {
		t.Fatal("mutating the clone changed the frozen original")
	}
}

// freezeAllocs builds a relation of n distinct rows over the same 100
// constants, whatever n is, inserted as interned rows the way the chase
// inserts them, and counts the objects Freeze allocates and then those
// NewFrozenStore allocates to load its dump.
func freezeAllocs(t *testing.T, n int) (freeze, load uint64) {
	t.Helper()
	in := value.NewInterner()
	ids := make([]value.ID, 100)
	for i := range ids {
		ids[i] = in.Intern(value.NewConst(fmt.Sprintf("v%d", i)))
	}
	st := NewStoreWith(in)
	for i := 0; i < n; i++ {
		// Positions 0 and 1 make every row distinct for i < 10,000, and
		// each position takes all 100 values from 1,000 rows up.
		st.InsertIDs("R", []value.ID{ids[i%100], ids[(7*i+i/100)%100], ids[i/10%100]})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st.Freeze()
	runtime.ReadMemStats(&after)
	freeze = after.Mallocs - before.Mallocs
	dumps := map[string]RelDump{"R": st.Rel("R").Dump()}
	runtime.ReadMemStats(&before)
	if _, err := NewFrozenStore(in, dumps); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return freeze, after.Mallocs - before.Mallocs
}

// TestFreezeAllocatesNothingPerRow: Freeze builds posting lists and
// decodes no row, and NewFrozenStore adopts a dump's columns the same
// way, so ten times the rows over the same values cost about the same
// number of allocations. A store that decodes every row when it freezes
// allocates one object per row and fails.
func TestFreezeAllocatesNothingPerRow(t *testing.T) {
	f1, l1 := freezeAllocs(t, 1_000)
	f10, l10 := freezeAllocs(t, 10_000)
	t.Logf("Freeze: %d objects for 1,000 rows, %d for 10,000; NewFrozenStore: %d and %d", f1, f10, l1, l10)
	if f10 > f1+64 {
		t.Errorf("Freeze of 10,000 rows allocated %d objects, 1,000 rows %d: want about as many", f10, f1)
	}
	if l10 > l1+64 {
		t.Errorf("NewFrozenStore of 10,000 rows allocated %d objects, 1,000 rows %d: want about as many", l10, l1)
	}
}
