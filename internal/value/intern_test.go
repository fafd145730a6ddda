package value

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/interval"
)

// randValue draws a value of a random kind (all four kinds covered).
func randValue(r *rand.Rand) Value {
	s := interval.Time(r.Intn(100))
	iv := interval.MustNew(s, s+1+interval.Time(r.Intn(50)))
	switch r.Intn(4) {
	case 0:
		return NewConst(string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26))))
	case 1:
		if r.Intn(2) == 0 {
			return NewNull(uint64(r.Intn(200) + 1))
		}
		return NewProjectedNull(uint64(r.Intn(200)+1), s)
	case 2:
		return NewAnnNull(uint64(r.Intn(200)+1), iv)
	default:
		return NewInterval(iv)
	}
}

// frozenParent interns n random values into a fresh interner, freezes
// it, and returns it with the values in ID order.
func frozenParent(r *rand.Rand, n int) (*Interner, []Value) {
	in := NewInterner()
	for i := 0; i < n; i++ {
		in.Intern(randValue(r))
	}
	in.Freeze()
	return in, in.Values()
}

// TestOverlay asserts the overlay contract: the parent's IDs keep their
// meaning, new IDs start at parent.Len(), a parent value interned or
// looked up in the overlay returns the parent's ID and adds nothing,
// Resolve and KindOf answer across levels, the chain's Values round-trip
// through NewInternerFromValues to the same IDs, and the parent never
// changes.
func TestOverlay(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	parent, pvals := frozenParent(r, 500)
	ov := NewOverlay(parent)
	if ov.Depth() != 2 || !ov.Extends(parent) || parent.Extends(ov) {
		t.Fatalf("overlay depth %d, extends parent %v, parent extends overlay %v", ov.Depth(), ov.Extends(parent), parent.Extends(ov))
	}
	if ov.Len() != parent.Len() {
		t.Fatalf("empty overlay has %d values, parent %d", ov.Len(), parent.Len())
	}
	for id, v := range pvals {
		if got := ov.Intern(v); got != ID(id) {
			t.Fatalf("Intern(%v) in the overlay = %d, parent issued %d", v, got, id)
		}
		if got, ok := ov.Lookup(v); !ok || got != ID(id) {
			t.Fatalf("Lookup(%v) in the overlay = %d,%v, want %d", v, got, ok, id)
		}
		if ov.Resolve(ID(id)) != v || ov.KindOf(ID(id)) != v.Kind() {
			t.Fatalf("overlay resolves parent ID %d to %v (%v), want %v", id, ov.Resolve(ID(id)), ov.KindOf(ID(id)), v)
		}
	}
	if ov.Len() != parent.Len() {
		t.Fatalf("interning parent values grew the overlay to %d values", ov.Len())
	}
	var fresh []Value
	for i := 0; len(fresh) < 200; i++ {
		v := NewConst(fmt.Sprintf("overlay-%d", i))
		want := ID(parent.Len() + len(fresh))
		if got := ov.Intern(v); got != want {
			t.Fatalf("new value %v got ID %d, want %d", v, got, want)
		}
		fresh = append(fresh, v)
	}
	ids := ov.InternAll(nil, append(pvals[:3:3], fresh[:3]...))
	back := ov.ResolveAll(nil, ids)
	for i, v := range append(pvals[:3:3], fresh[:3]...) {
		if back[i] != v {
			t.Fatalf("ResolveAll across levels[%d] = %v, want %v", i, back[i], v)
		}
	}
	if _, ok := parent.Lookup(fresh[0]); ok || parent.Len() != len(pvals) {
		t.Fatal("interning into the overlay changed its parent")
	}

	// A chain of three levels serializes as one table.
	ov.Freeze()
	top := NewOverlay(ov)
	last := top.Intern(NewAnnNull(1, interval.MustNew(3, 9)))
	if top.Depth() != 3 || !top.Extends(parent) || last != ID(ov.Len()) {
		t.Fatalf("three-level chain: depth %d, extends root %v, first ID %d want %d", top.Depth(), top.Extends(parent), last, ov.Len())
	}
	flat, err := NewInternerFromValues(top.Values())
	if err != nil {
		t.Fatal(err)
	}
	if flat.Len() != top.Len() {
		t.Fatalf("flat table has %d values, chain %d", flat.Len(), top.Len())
	}
	for id := ID(0); int(id) < top.Len(); id++ {
		v := top.Resolve(id)
		if got, ok := flat.Lookup(v); !ok || got != id {
			t.Fatalf("flat table maps %v to %d, chain to %d", v, got, id)
		}
	}
}

// TestOverlayFlattens: layering on a chain already maxDepth deep flattens
// it into one frozen level first, keeping every ID, so no chain exceeds
// maxDepth levels and the new overlay still extends every level it
// replaced.
func TestOverlayFlattens(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	root, _ := frozenParent(r, 50)
	in := root
	levels := []*Interner{root}
	for i := 0; i < 8; i++ {
		in = NewOverlay(in)
		if in.Depth() > maxDepth {
			t.Fatalf("layer %d: depth %d exceeds %d", i, in.Depth(), maxDepth)
		}
		in.Intern(NewConst(fmt.Sprintf("level-%d", i)))
		in.Freeze()
		levels = append(levels, in)
	}
	for i, l := range levels {
		if !in.Extends(l) {
			t.Fatalf("top level does not extend level %d", i)
		}
		for id := ID(0); int(id) < l.Len(); id++ {
			if in.Resolve(id) != l.Resolve(id) {
				t.Fatalf("ID %d of level %d changed meaning: %v, was %v", id, i, in.Resolve(id), l.Resolve(id))
			}
		}
	}
	if in.Extends(NewInterner()) {
		t.Fatal("a chain extends an unrelated interner")
	}
}

// TestFrozenInternerRejectsNewValues: a frozen interner still answers
// for the values it holds, and interning anything else panics with a
// message naming the freeze.
func TestFrozenInternerRejectsNewValues(t *testing.T) {
	in := NewInterner()
	a := in.Intern(NewConst("a"))
	in.Freeze()
	if in.Intern(NewConst("a")) != a || in.InternConstBytes([]byte("a")) != a {
		t.Fatal("a frozen interner forgot a value it holds")
	}
	for name, fn := range map[string]func(){
		"Intern":           func() { in.Intern(NewConst("b")) },
		"InternAll":        func() { in.InternAll(nil, []Value{NewConst("a"), NewNull(1)}) },
		"InternConstBytes": func() { in.InternConstBytes([]byte("c")) },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "frozen interner") {
					t.Fatalf("%s of a new value into a frozen interner: recovered %q", name, msg)
				}
			}()
			fn()
		}()
	}
	if in.Len() != 1 {
		t.Fatalf("frozen interner grew to %d values", in.Len())
	}
}

// TestOverlaysConcurrent (run under -race): 8 goroutines each layer an
// overlay on one frozen parent and intern and read through it; every
// goroutine sees the parent's IDs, issues its own values from
// parent.Len() upward, and leaves the parent unchanged.
func TestOverlaysConcurrent(t *testing.T) {
	parent, pvals := frozenParent(rand.New(rand.NewSource(3)), 300)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ov := NewOverlay(parent)
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				id := ID(r.Intn(len(pvals)))
				if ov.Resolve(id) != pvals[id] || parent.KindOf(id) != pvals[id].Kind() {
					t.Errorf("worker %d: parent ID %d resolves differently", w, id)
					return
				}
				v := NewConst(fmt.Sprintf("w%d-%d", w, i%100))
				got := ov.Intern(v)
				if got < ID(len(pvals)) || ov.Resolve(got) != v {
					t.Errorf("worker %d: %v interned to %d", w, v, got)
					return
				}
			}
			if ov.Len() != len(pvals)+100 {
				t.Errorf("worker %d: overlay holds %d values, want %d", w, ov.Len(), len(pvals)+100)
			}
		}(w)
	}
	wg.Wait()
	if parent.Len() != len(pvals) {
		t.Fatalf("parent grew to %d values", parent.Len())
	}
}

func TestInternRoundTrip(t *testing.T) {
	in := NewInterner()
	r := rand.New(rand.NewSource(5))
	seen := make(map[Value]ID)
	for i := 0; i < 10_000; i++ {
		v := randValue(r)
		id := in.Intern(v)
		if got := in.Resolve(id); got != v {
			t.Fatalf("resolve(intern(%v)) = %v", v, got)
		}
		if got := in.KindOf(id); got != v.Kind() {
			t.Fatalf("KindOf(%v) = %v, want %v", v, got, v.Kind())
		}
		if prev, ok := seen[v]; ok && prev != id {
			t.Fatalf("%v interned to both %d and %d", v, prev, id)
		}
		seen[v] = id
		if got, ok := in.Lookup(v); !ok || got != id {
			t.Fatalf("Lookup(%v) = %d,%v, want %d,true", v, got, ok, id)
		}
	}
	if in.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d distinct values", in.Len(), len(seen))
	}
}

func TestInternFourKindsExplicit(t *testing.T) {
	in := NewInterner()
	iv := interval.MustNew(2, 7)
	for _, v := range []Value{
		NewConst("IBM"),
		NewNull(3),
		NewProjectedNull(3, 5),
		NewAnnNull(3, iv),
		NewInterval(iv),
	} {
		if got := in.Resolve(in.Intern(v)); got != v {
			t.Fatalf("round trip of %v (kind %v) = %v", v, v.Kind(), got)
		}
	}
	// The five values above are pairwise distinct.
	if in.Len() != 5 {
		t.Fatalf("Len = %d, want 5", in.Len())
	}
}

func TestLookupMiss(t *testing.T) {
	in := NewInterner()
	in.Intern(NewConst("x"))
	if _, ok := in.Lookup(NewConst("y")); ok {
		t.Fatal("Lookup of never-interned value succeeded")
	}
}

// TestInternConstBytes: the byte-keyed intern agrees with Intern of the
// constant, issues IDs in the same order, does not retain the caller's
// buffer, and allocates nothing for a constant already interned.
func TestInternConstBytes(t *testing.T) {
	in := NewInterner()
	buf := []byte("ada")
	a := in.InternConstBytes(buf)
	if got := in.Intern(NewConst("ada")); got != a {
		t.Fatalf("Intern after InternConstBytes = %d, want %d", got, a)
	}
	copy(buf, "bob")
	if in.Resolve(a) != NewConst("ada") {
		t.Fatalf("interned constant changed with the caller's buffer: %v", in.Resolve(a))
	}
	n := in.Intern(NewNull(1))
	if b := in.InternConstBytes(buf); b != n+1 || in.Resolve(b) != NewConst("bob") {
		t.Fatalf("InternConstBytes(bob) = %d (%v), want fresh ID %d", b, in.Resolve(b), n+1)
	}
	if allocs := testing.AllocsPerRun(10, func() { in.InternConstBytes(buf) }); allocs != 0 {
		t.Fatalf("InternConstBytes of a known constant allocated %v times", allocs)
	}
}

func TestInternAllResolveAll(t *testing.T) {
	in := NewInterner()
	tup := []Value{NewConst("a"), NewNull(1), NewInterval(interval.MustNew(0, 3))}
	ids := in.InternAll(nil, tup)
	if len(ids) != len(tup) {
		t.Fatalf("InternAll produced %d ids", len(ids))
	}
	back := in.ResolveAll(nil, ids)
	for i := range tup {
		if back[i] != tup[i] {
			t.Fatalf("ResolveAll[%d] = %v, want %v", i, back[i], tup[i])
		}
	}
}

// TestInternConcurrent exercises concurrent interning of an overlapping
// value set from many goroutines (run under -race): every goroutine must
// observe the same ID for the same value, and resolution must agree.
func TestInternConcurrent(t *testing.T) {
	in := NewInterner()
	const workers = 8
	const perWorker = 4000
	results := make([]map[Value]ID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Overlapping seeds: workers race on mostly the same values.
			r := rand.New(rand.NewSource(int64(w % 2)))
			got := make(map[Value]ID)
			for i := 0; i < perWorker; i++ {
				v := randValue(r)
				id := in.Intern(v)
				if prev, ok := got[v]; ok && prev != id {
					t.Errorf("worker %d: %v interned to %d then %d", w, v, prev, id)
					return
				}
				got[v] = id
				if res := in.Resolve(id); res != v {
					t.Errorf("worker %d: resolve mismatch for %v", w, v)
					return
				}
				in.KindOf(id)
				in.Len()
			}
			results[w] = got
		}(w)
	}
	wg.Wait()
	// Cross-worker agreement.
	merged := make(map[Value]ID)
	for w, got := range results {
		for v, id := range got {
			if prev, ok := merged[v]; ok && prev != id {
				t.Fatalf("worker %d: %v has id %d, another worker saw %d", w, v, id, prev)
			}
			merged[v] = id
		}
	}
}

func TestHashIDsDistinguishesOrder(t *testing.T) {
	a := []ID{1, 2, 3}
	b := []ID{3, 2, 1}
	if HashIDs(a) == HashIDs(b) {
		t.Fatal("hash ignores order")
	}
	if HashIDs(a) != HashIDs([]ID{1, 2, 3}) {
		t.Fatal("hash not deterministic")
	}
}
