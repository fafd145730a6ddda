// Package instance implements the two views of a temporal database
// (paper §2): the concrete view — a finite set of interval-timestamped
// facts — and the abstract view — conceptually an infinite sequence of
// snapshots ⟨db0, db1, ...⟩, represented finitely here as a sequence of
// segments justified by the finite change condition. The semantic map
// ⟦·⟧ connects the two, extended to interval-annotated nulls per §4.1.
package instance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fact"
	"repro/internal/interval"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// Concrete is a concrete temporal database instance: per-relation sets of
// interval-timestamped facts. Internally facts are stored as tuples whose
// last component is the interval value, which is what lets the
// homomorphism engine treat the temporal attribute uniformly with data
// attributes (intervals behave as constants after normalization, §4.2).
type Concrete struct {
	sch *schema.Schema // may be nil: schemaless instances allowed
	st  *storage.Store
}

// NewConcrete returns an empty concrete instance over the given schema
// (nil for schemaless), with a fresh value interner.
func NewConcrete(sch *schema.Schema) *Concrete {
	return NewConcreteWith(sch, nil)
}

// NewConcreteWith returns an empty concrete instance sharing the given
// interner (fresh when nil). Instances derived from one another — a
// chase's source and target, normalization outputs, egd rewrites — share
// an interner so their stored rows stay ID-compatible and can be copied
// or substituted without re-interning.
func NewConcreteWith(sch *schema.Schema, in *value.Interner) *Concrete {
	return &Concrete{sch: sch, st: storage.NewStoreWith(in)}
}

// FromStore wraps an existing store as a concrete instance over sch —
// the bridge for the snapshot loader, whose stores arrive frozen and
// fully built. The caller is responsible for the store's rows matching
// the schema (fact arity + trailing interval column).
func FromStore(sch *schema.Schema, st *storage.Store) *Concrete {
	return &Concrete{sch: sch, st: st}
}

// Schema returns the instance's schema (possibly nil).
func (c *Concrete) Schema() *schema.Schema { return c.sch }

// Interner returns the value interner of the underlying store.
func (c *Concrete) Interner() *value.Interner { return c.st.Interner() }

// Store exposes the underlying tuple store for the homomorphism engine.
// Callers must not mutate it directly.
func (c *Concrete) Store() *storage.Store { return c.st }

// Freeze publishes the instance for concurrent reads: every lazy storage
// structure reads consult (posting lists, decoded tuples) is built
// eagerly and the underlying store flips to immutable — any number of
// goroutines may then match, snapshot, render, or clone the instance
// concurrently. Writes to a frozen instance panic. Idempotent; Clone
// returns a mutable copy.
func (c *Concrete) Freeze() { c.st.Freeze() }

// Frozen reports whether the instance has been frozen.
func (c *Concrete) Frozen() bool { return c.st.Frozen() }

// CheckRel validates a relation name and data arity against the
// instance's schema; a nil schema accepts everything. Insert applies it
// per fact; the chase's parallel merge path (which inserts interned rows
// directly) shares it so both paths report identical errors.
func (c *Concrete) CheckRel(rel string, arity int) error {
	if c.sch == nil {
		return nil
	}
	r, ok := c.sch.Relation(rel)
	if !ok {
		return fmt.Errorf("instance: unknown relation %s", rel)
	}
	if arity != r.Arity() {
		return fmt.Errorf("instance: %s expects %d data attributes, got %d", rel, r.Arity(), arity)
	}
	return nil
}

// Insert validates and adds a fact, reporting whether it was new.
func (c *Concrete) Insert(f fact.CFact) (bool, error) {
	if err := f.Validate(); err != nil {
		return false, err
	}
	if err := c.CheckRel(f.Rel, len(f.Args)); err != nil {
		return false, err
	}
	return c.st.Insert(f.Rel, ToTuple(f)), nil
}

// MustInsert is Insert but panics on error; for tests and examples.
func (c *Concrete) MustInsert(f fact.CFact) {
	if _, err := c.Insert(f); err != nil {
		panic(err)
	}
}

// InsertAll inserts a batch, stopping at the first error.
func (c *Concrete) InsertAll(fs []fact.CFact) error {
	for _, f := range fs {
		if _, err := c.Insert(f); err != nil {
			return err
		}
	}
	return nil
}

// ToTuple encodes a concrete fact as a stored tuple: data values followed
// by the interval value.
func ToTuple(f fact.CFact) []value.Value {
	tup := make([]value.Value, len(f.Args)+1)
	copy(tup, f.Args)
	tup[len(f.Args)] = value.NewInterval(f.T)
	return tup
}

// FromTuple decodes a stored tuple back into a concrete fact. It panics
// on tuples whose last component is not an interval, which indicates
// corruption.
func FromTuple(rel string, tup []value.Value) fact.CFact {
	n := len(tup) - 1
	iv, ok := tup[n].Interval()
	if !ok || tup[n].Kind() != value.IntervalVal {
		panic(fmt.Sprintf("instance: tuple of %s lacks interval tail: %v", rel, tup))
	}
	return fact.CFact{Rel: rel, Args: tup[:n:n], T: iv}
}

// FactAt returns the fact at the given storage row.
func (c *Concrete) FactAt(rel string, row int) fact.CFact {
	return FromTuple(rel, c.st.Rel(rel).Tuple(row))
}

// IntervalAt returns the interval of the fact stored at row of r, read
// off the row's interval column without decoding the fact. Like
// FromTuple it panics when the row lacks an interval tail.
func IntervalAt(r *storage.Rel, row int) interval.Interval {
	v := r.ValueAt(row, r.Arity(row)-1)
	if v.Kind() != value.IntervalVal {
		FromTuple(r.Name(), r.Tuple(row)) // panics with the row rendered
	}
	return v.Iv
}

// InsertRowOf copies the fact stored at row of src's relation rel into
// c by its interned row, without re-interning its values. It applies
// Insert's checks and reports like Insert; src must share c's interner.
func (c *Concrete) InsertRowOf(src *Concrete, rel string, row int) (bool, error) {
	f := src.FactAt(rel, row)
	if err := f.Validate(); err != nil {
		return false, err
	}
	if err := c.CheckRel(f.Rel, len(f.Args)); err != nil {
		return false, err
	}
	return c.st.InsertRowOf(src.st.Rel(rel), row), nil
}

// Len returns the number of facts.
func (c *Concrete) Len() int { return c.st.Size() }

// Relations returns the names of non-empty relations, sorted.
func (c *Concrete) Relations() []string { return c.st.Relations() }

// EachFact calls fn for every fact in store order (relations
// lexicographic, live rows ascending) — deterministic but unsorted,
// without materializing or sorting the fact set. Iteration stops early
// when fn returns false. Prefer this over Facts on hot paths that only
// need determinism.
func (c *Concrete) EachFact(fn func(f fact.CFact) bool) {
	c.st.Each(func(rel string, tup []value.Value) bool {
		return fn(FromTuple(rel, tup))
	})
}

// Facts returns every fact in deterministic order.
func (c *Concrete) Facts() []fact.CFact {
	out := make([]fact.CFact, 0, c.Len())
	c.st.Each(func(rel string, tup []value.Value) bool {
		out = append(out, FromTuple(rel, tup))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return fact.CompareC(out[i], out[j]) < 0 })
	return out
}

// FactsOf returns the facts of one relation in deterministic order.
func (c *Concrete) FactsOf(rel string) []fact.CFact {
	r := c.st.Rel(rel)
	if r == nil {
		return nil
	}
	out := make([]fact.CFact, 0, r.Len())
	r.EachLive(func(row int) bool {
		out = append(out, FromTuple(rel, r.Tuple(row)))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return fact.CompareC(out[i], out[j]) < 0 })
	return out
}

// Contains reports whether the instance holds the identical fact.
func (c *Concrete) Contains(f fact.CFact) bool {
	return c.st.Contains(f.Rel, ToTuple(f))
}

// Clone returns an independent copy sharing immutable tuples.
func (c *Concrete) Clone() *Concrete {
	return &Concrete{sch: c.sch, st: c.st.Clone()}
}

// IsComplete reports whether the instance is null-free (a complete
// instance in the paper's sense).
func (c *Concrete) IsComplete() bool {
	complete := true
	c.st.Each(func(rel string, tup []value.Value) bool {
		for _, v := range tup {
			if v.IsNullLike() {
				complete = false
				return false
			}
		}
		return true
	})
	return complete
}

// Endpoints returns the sorted distinct start/end points over all facts.
func (c *Concrete) Endpoints() []interval.Time {
	ivs := make([]interval.Interval, 0, c.Len())
	c.st.Each(func(rel string, tup []value.Value) bool {
		iv, _ := tup[len(tup)-1].Interval()
		ivs = append(ivs, iv)
		return true
	})
	return interval.Endpoints(ivs)
}

// Snapshot materializes the abstract snapshot db_tp = ⟦c⟧(tp): every fact
// whose interval contains tp, with interval-annotated nulls projected to
// per-snapshot labeled nulls (paper §4.1). The snapshot gets a private
// interner: projected per-timepoint nulls are snapshot-local, and
// interning them into the instance's long-lived interner would grow it
// by O(families × timepoints) across repeated snapshotting.
func (c *Concrete) Snapshot(tp interval.Time) *Snapshot {
	snap := NewSnapshot()
	c.st.Each(func(rel string, tup []value.Value) bool {
		cf := FromTuple(rel, tup)
		if f, ok := cf.Project(tp); ok {
			snap.Insert(f)
		}
		return true
	})
	return snap
}

// String renders the facts one per line, deterministically sorted.
func (c *Concrete) String() string {
	fs := c.Facts()
	lines := make([]string, len(fs))
	for i, f := range fs {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// Equal reports whether two instances contain exactly the same facts.
func (c *Concrete) Equal(other *Concrete) bool {
	if c.Len() != other.Len() {
		return false
	}
	equal := true
	c.st.Each(func(rel string, tup []value.Value) bool {
		if !other.st.Contains(rel, tup) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// dataGroups groups the instance's facts by data identity — relation and
// data arguments, with annotated nulls compared by family (fact.SameData)
// — using fact.DataHash buckets instead of rendered string keys. Groups
// are returned in insertion order; each carries the intervals of its
// member facts in insertion order.
type dataGroup struct {
	proto fact.CFact
	ivs   []interval.Interval // one per fact, in insertion order
}

func (c *Concrete) dataGroups() []*dataGroup {
	buckets := make(map[uint64][]*dataGroup)
	var order []*dataGroup
	c.st.Each(func(rel string, tup []value.Value) bool {
		f := FromTuple(rel, tup)
		h := f.DataHash()
		var g *dataGroup
		for _, cand := range buckets[h] {
			if cand.proto.SameData(f) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &dataGroup{proto: f}
			buckets[h] = append(buckets[h], g)
			order = append(order, g)
		}
		g.ivs = append(g.ivs, f.T)
		return true
	})
	return order
}

// IsCoalesced reports whether facts with identical data values have
// pairwise disjoint, non-adjacent intervals (paper §2).
func (c *Concrete) IsCoalesced() bool {
	for _, g := range c.dataGroups() {
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

// Coalesce returns the canonical coalesced equivalent: facts sharing data
// values (including the null family of annotated nulls) have their
// intervals merged into maximal disjoint intervals, re-annotating nulls
// accordingly. Coalescing is the inverse of fragmentation and preserves
// ⟦·⟧.
func (c *Concrete) Coalesce() *Concrete {
	out := NewConcreteWith(c.sch, c.Interner())
	for _, g := range c.dataGroups() {
		set := interval.NewSet(g.ivs...)
		for _, iv := range set.Intervals() {
			out.MustInsert(g.proto.WithInterval(iv))
		}
	}
	return out
}
