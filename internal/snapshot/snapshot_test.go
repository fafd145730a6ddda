package snapshot

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/interval"
	"repro/internal/storage"
	"repro/internal/value"
)

// testStore builds a deterministic pseudo-random frozen store exercising
// every value kind, hash-collision buckets (many tuples, few distinct
// constants), relations of different arities, and — via egd-style
// substitution — dead rows in the validity bitmap.
func testStore(seed int64) *storage.Store {
	rng := rand.New(rand.NewSource(seed))
	st := storage.NewStore()
	rels := []string{"E", "S", "R"}
	iv := func() interval.Interval {
		s := interval.Time(rng.Intn(50))
		return interval.Interval{Start: s, End: s + 1 + interval.Time(rng.Intn(20))}
	}
	anyVal := func() value.Value {
		switch rng.Intn(4) {
		case 0:
			return value.NewConst(fmt.Sprintf("c%d", rng.Intn(30)))
		case 1:
			return value.NewNull(uint64(1 + rng.Intn(8)))
		case 2:
			return value.NewAnnNull(uint64(1+rng.Intn(8)), iv())
		default:
			return value.NewProjectedNull(uint64(1+rng.Intn(8)), interval.Time(rng.Intn(40)))
		}
	}
	n := 150 + rng.Intn(150)
	for i := 0; i < n; i++ {
		rel := rels[rng.Intn(len(rels))]
		tup := []value.Value{anyVal(), anyVal(), value.NewInterval(iv())}
		if rng.Intn(4) == 0 { // a 4-ary relation of its own
			rel += "4"
			tup = append([]value.Value{value.NewConst("x")}, tup...)
		}
		st.Insert(rel, tup)
	}
	// Collapse null families pairwise, the egd shape: rows rewriting into
	// an existing duplicate die, leaving holes in the validity bitmap.
	for fam := uint64(2); fam <= 8; fam += 2 {
		from, ok1 := st.Interner().Lookup(value.NewNull(fam))
		to, ok2 := st.Interner().Lookup(value.NewNull(fam - 1))
		if ok1 && ok2 {
			st.SubstituteIDs([]value.ID{from}, func(id value.ID) value.ID {
				if id == from {
					return to
				}
				return id
			})
		}
	}
	st.Freeze()
	return st
}

// encode writes snap to memory, failing the test on error.
func encode(t *testing.T, snap Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// checkSameStore asserts got reproduces want exactly: physical row space,
// live tuple set, dead-row count, and the interner table with identical
// ID assignment.
func checkSameStore(t *testing.T, want, got *storage.Store) {
	t.Helper()
	if !got.Frozen() {
		t.Fatalf("loaded store is not frozen")
	}
	if w, g := want.String(), got.String(); w != g {
		t.Fatalf("loaded store differs:\nwant:\n%s\ngot:\n%s", w, g)
	}
	if !reflect.DeepEqual(want.Relations(), got.Relations()) {
		t.Fatalf("relations: want %v, got %v", want.Relations(), got.Relations())
	}
	for _, name := range want.Relations() {
		w, g := want.Rel(name), got.Rel(name)
		if w.NumRows() != g.NumRows() || w.Len() != g.Len() {
			t.Fatalf("relation %q: rows %d/%d live %d/%d", name, g.NumRows(), w.NumRows(), g.Len(), w.Len())
		}
	}
	if !reflect.DeepEqual(want.Interner().Values(), got.Interner().Values()) {
		t.Fatalf("interner tables differ")
	}
}

func TestRoundTripSeeds(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			st := testStore(seed)
			meta := Meta{Kind: "instance", Schema: []RelSig{{Name: "E", Attrs: []string{"a", "b"}}}}
			data := encode(t, Snapshot{Store: st, Meta: meta})

			f, err := OpenBytes(data)
			if err != nil {
				t.Fatalf("OpenBytes: %v", err)
			}
			if f.HasSource() {
				t.Fatalf("unexpected source group")
			}
			if got := f.Meta(); got.Kind != "instance" || len(got.Schema) != 1 || got.Schema[0].Name != "E" {
				t.Fatalf("meta round-trip: %+v", got)
			}
			loaded, err := f.Store()
			if err != nil {
				t.Fatalf("Store: %v", err)
			}
			checkSameStore(t, st, loaded)

			// Re-encoding the loaded store must reproduce the file byte for
			// byte: the strongest form of round-trip stability.
			again := encode(t, Snapshot{Store: loaded, Meta: meta})
			if !bytes.Equal(data, again) {
				t.Fatalf("re-encoded snapshot differs from original (%d vs %d bytes)", len(again), len(data))
			}
		})
	}
}

func TestRoundTripFileMmap(t *testing.T) {
	st := testStore(42)
	src := testStore(43)
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := WriteFile(path, Snapshot{Store: st, Source: src, Meta: Meta{Kind: "solution"}}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !f.HasSource() {
		t.Fatalf("source group missing")
	}
	loaded, err := f.Store()
	if err != nil {
		t.Fatalf("Store: %v", err)
	}
	loadedSrc, err := f.SourceStore()
	if err != nil {
		t.Fatalf("SourceStore: %v", err)
	}
	checkSameStore(t, st, loaded)
	checkSameStore(t, src, loadedSrc)
	// Memoized materialization: same store back.
	if again, _ := f.Store(); again != loaded {
		t.Fatalf("Store not memoized")
	}
	loaded, loadedSrc = nil, nil
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSourceStoreAbsent(t *testing.T) {
	data := encode(t, Snapshot{Store: testStore(7)})
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SourceStore(); err != ErrNoSource {
		t.Fatalf("SourceStore on sourceless snapshot: %v", err)
	}
}

func TestWriteRejectsMutableStore(t *testing.T) {
	st := storage.NewStore()
	st.Insert("E", []value.Value{value.NewConst("a")})
	if err := Write(&bytes.Buffer{}, Snapshot{Store: st}); err == nil {
		t.Fatal("Write accepted a mutable store")
	}
	if err := Write(&bytes.Buffer{}, Snapshot{Store: nil}); err == nil {
		t.Fatal("Write accepted a nil store")
	}
	frozen := testStore(1)
	if err := Write(&bytes.Buffer{}, Snapshot{Store: frozen, Source: st}); err == nil {
		t.Fatal("Write accepted a mutable source store")
	}
}

func TestEmptyStoreRoundTrip(t *testing.T) {
	st := storage.NewStore()
	st.Freeze()
	data := encode(t, Snapshot{Store: st})
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := f.Store()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 0 || !loaded.Frozen() {
		t.Fatalf("empty store round-trip: size %d frozen %v", loaded.Size(), loaded.Frozen())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap")
	if err := WriteFile(path, Snapshot{Store: testStore(3)}); err != nil {
		t.Fatal(err)
	}
	// Overwrite with different contents; no *.tmp litter either way.
	if err := WriteFile(path, Snapshot{Store: testStore(4)}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "s.snap" {
		t.Fatalf("directory litter: %v", ents)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Store(); err != nil {
		t.Fatal(err)
	}
}
