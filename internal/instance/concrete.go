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
	row []value.Value // InsertRowOf's decode buffer
}

// NewConcrete returns an empty concrete instance over the given schema
// (nil for schemaless), with a fresh value interner.
func NewConcrete(sch *schema.Schema) *Concrete {
	return NewConcreteWith(sch, nil)
}

// NewConcreteWith returns an empty concrete instance sharing the given
// interner (fresh when nil; an overlay on it when it is frozen).
// Instances derived from one another — a chase's source and target,
// normalization outputs, egd rewrites — share an interner, or extend a
// frozen one, so their stored rows stay ID-compatible and can be copied
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

// Freeze publishes the instance for concurrent reads: the posting lists
// reads consult are built eagerly and the underlying store flips to
// immutable — any number of goroutines may then match, snapshot, render,
// or clone the instance concurrently. No fact is decoded ahead of time;
// readers decode the rows they visit. The interner is left as it is.
// Writes to a frozen instance panic. Idempotent; Clone returns a mutable
// copy.
func (c *Concrete) Freeze() { c.st.Freeze() }

// Frozen reports whether the instance has been frozen.
func (c *Concrete) Frozen() bool { return c.st.Frozen() }

// CheckRel validates a relation name and data arity against the
// instance's schema. A relation has one arity (paper §2), so without a
// schema the relation's earlier facts fix it: a fact of another data
// arity is rejected, and a relation with none accepts any. Insert
// applies it per fact; the chase's tgd kernel and the JSON decoder
// (which insert interned rows directly) share it so every path reports
// identical errors, and no row of a second arity reaches the store.
func (c *Concrete) CheckRel(rel string, arity int) error {
	if c.sch == nil {
		if r := c.st.Rel(rel); r != nil && r.NumRows() > 0 && r.Arity()-1 != arity {
			return fmt.Errorf("instance: %s has %d data attributes, got %d", rel, r.Arity()-1, arity)
		}
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
	v := r.ValueAt(row, r.Arity()-1)
	if v.Kind() != value.IntervalVal {
		FromTuple(r.Name(), r.Tuple(row)) // panics with the row rendered
	}
	return v.Iv
}

// InsertRowOf copies the fact stored at row of src's relation rel into
// c by its interned row, without re-interning its values. It applies
// Insert's checks and reports like Insert; c's interner must extend
// src's. The checks read the fact decoded into a buffer c reuses (a
// stack buffer would escape through Validate's error path).
func (c *Concrete) InsertRowOf(src *Concrete, rel string, row int) (bool, error) {
	r := src.st.Rel(rel)
	iv := IntervalAt(r, row)
	c.row = r.AppendTuple(c.row[:0], row)
	f := fact.CFact{Rel: rel, Args: c.row[:len(c.row)-1], T: iv}
	if err := f.Validate(); err != nil {
		return false, err
	}
	if err := c.CheckRel(f.Rel, len(f.Args)); err != nil {
		return false, err
	}
	return c.st.InsertRowOf(r, row), nil
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

// Clone returns an independent copy sharing immutable tuples. It shares
// c's interner, or interns into an overlay on it when it is frozen.
func (c *Concrete) Clone() *Concrete {
	return &Concrete{sch: c.sch, st: c.st.Clone()}
}

// CloneWith is Clone into the interner in (an overlay on it when it is
// frozen), which must extend c's (see storage.Store.CloneWith).
func (c *Concrete) CloneWith(in *value.Interner) *Concrete {
	return &Concrete{sch: c.sch, st: c.st.CloneWith(in)}
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

// IsCoalesced reports whether facts with identical data values have
// pairwise disjoint, non-adjacent intervals (paper §2): every data
// identity has as many maximal intervals as facts.
func (c *Concrete) IsCoalesced() bool {
	for _, cv := range NewCoverIndex(c).order {
		if cv.ivs.Len() != cv.facts {
			return false
		}
	}
	return true
}

// Coalesce returns the canonical coalesced equivalent: facts sharing data
// values (including the null family of annotated nulls) have their
// intervals merged into maximal disjoint intervals, re-annotating nulls
// accordingly. The result shares c's interner (an overlay on it when it
// is frozen) and holds each data identity's maximal intervals in
// ascending order, identities in store order. Coalescing is the inverse
// of fragmentation and preserves ⟦·⟧.
func (c *Concrete) Coalesce() *Concrete {
	return NewCoverIndex(c).emit(NewConcreteWith(c.sch, c.Interner()), nil)
}
