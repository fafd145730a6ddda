package value

import (
	"math/rand"
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

// TestNewInternerFrom asserts the seeding contract: the clone answers
// identically for every seeded value, diverges independently afterwards,
// and never writes back into its base.
func TestNewInternerFrom(t *testing.T) {
	base := NewInterner()
	r := rand.New(rand.NewSource(7))
	var seeded []Value
	for i := 0; i < 500; i++ {
		v := randValue(r)
		base.Intern(v)
		seeded = append(seeded, v)
	}
	baseLen := base.Len()
	cl := NewInternerFrom(base)
	if cl.Len() != baseLen {
		t.Fatalf("clone has %d values, base %d", cl.Len(), baseLen)
	}
	for _, v := range seeded {
		want, _ := base.Lookup(v)
		got, ok := cl.Lookup(v)
		if !ok || got != want {
			t.Fatalf("clone lookup(%v) = %v/%v, base has %v", v, got, ok, want)
		}
		if cl.Resolve(got) != v {
			t.Fatalf("clone resolve(%v) != %v", got, v)
		}
	}
	// Divergence: new values in the clone do not leak into the base.
	fresh := NewConst("only-in-clone-after-seeding")
	if _, ok := base.Lookup(fresh); ok {
		t.Fatal("test value already in base")
	}
	cl.Intern(fresh)
	if _, ok := base.Lookup(fresh); ok {
		t.Fatal("interning into the clone mutated the base")
	}
	if base.Len() != baseLen {
		t.Fatalf("base grew %d -> %d", baseLen, base.Len())
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
