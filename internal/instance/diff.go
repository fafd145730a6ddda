package instance

import (
	"repro/internal/fact"
	"repro/internal/interval"
	"repro/internal/schema"
)

// cover is the interval coverage of one data identity (relation + data
// arguments, nulls compared by family): a representative fact, the union
// of the intervals of every fact sharing its data, and how many facts
// those were.
type cover struct {
	f     fact.CFact
	ivs   interval.Set
	facts int
}

// CoverIndex groups facts by data identity, bucketed on DataHash and
// confirmed with SameData (no canonical strings are ever built), in
// first-visited order so downstream output is deterministic. It is the
// one data-identity grouping: Coalesce, IsCoalesced, Diff and the
// answers of naive query evaluation all go through it. A built index is
// read-only and depends only on the facts it was given, so callers
// holding a frozen instance may build it once and reuse it across any
// number of DiffIndexed calls from any goroutine. The zero value is an
// empty schemaless index, ready for Add.
type CoverIndex struct {
	sch    *schema.Schema
	byHash map[uint64][]*cover
	order  []*cover
}

// NewCoverIndex builds the data-identity coverage index of c.
func NewCoverIndex(c *Concrete) *CoverIndex {
	ix := &CoverIndex{sch: c.Schema()}
	c.EachFact(func(f fact.CFact) bool {
		ix.Add(f)
		return true
	})
	return ix
}

// Add records f under its data identity. The index keeps the first fact
// of each identity, so the caller must not mutate f's arguments
// afterwards.
func (ix *CoverIndex) Add(f fact.CFact) {
	h := f.DataHash()
	for _, cv := range ix.byHash[h] {
		if cv.f.SameData(f) {
			cv.ivs.Add(f.T)
			cv.facts++
			return
		}
	}
	cv := &cover{f: f, facts: 1}
	cv.ivs.Add(f.T)
	if ix.byHash == nil {
		ix.byHash = make(map[uint64][]*cover)
	}
	ix.byHash[h] = append(ix.byHash[h], cv)
	ix.order = append(ix.order, cv)
}

// lookup returns the coverage of f's data identity, or nil.
func (ix *CoverIndex) lookup(f fact.CFact) *interval.Set {
	for _, cv := range ix.byHash[f.DataHash()] {
		if cv.f.SameData(f) {
			return &cv.ivs
		}
	}
	return nil
}

// Coalesced returns the indexed facts in coalesced form, as a new
// instance over the index's schema with a fresh interner: each data
// identity's maximal intervals in ascending order, identities in
// first-visited order.
func (ix *CoverIndex) Coalesced() *Concrete { return ix.emit(NewConcrete(ix.sch), nil) }

// emit inserts into out, for every data identity of ix in first-visited
// order, the maximal intervals of its coverage that minus does not cover
// (all of them when minus is nil), ascending, as facts, and returns out.
// Each identity's remainder is already a canonical interval.Set and two
// identities never merge, so out is coalesced.
func (ix *CoverIndex) emit(out *Concrete, minus *CoverIndex) *Concrete {
	for _, cv := range ix.order {
		rest := cv.ivs
		if minus != nil {
			if cov := minus.lookup(cv.f); cov != nil {
				rest = cv.ivs.Subtract(cov)
			}
		}
		for _, iv := range rest.Intervals() {
			out.MustInsert(cv.f.WithInterval(iv))
		}
	}
	return out
}

// Diff computes the semantic temporal difference a ∖ b: for every time
// point ℓ, the facts of ⟦a⟧(ℓ) that are not in ⟦b⟧(ℓ), returned as a
// coalesced concrete instance over a's schema with a fresh interner.
// Facts are compared by data values — for annotated nulls, by family —
// so a null fact is "covered" only by a fragment of the same family, and
// a and b may use unrelated interners. The classic temporal-database
// difference with interval splitting.
func Diff(a, b *Concrete) *Concrete {
	return NewCoverIndex(a).emit(NewConcrete(a.Schema()), NewCoverIndex(b))
}

// DiffIndexed computes both directions of Diff over prebuilt coverage
// indexes, for callers that hold frozen instances and amortize index
// construction across repeated diffs (a chain of incremental runs diffs
// each solution twice: once as the new side, once as the next delta's
// base).
func DiffIndexed(a, b *CoverIndex) (aNotB, bNotA *Concrete) {
	return a.emit(NewConcrete(a.sch), b), b.emit(NewConcrete(b.sch), a)
}

// SameSemantics reports whether two concrete instances denote the same
// abstract instance: both directions of Diff are empty.
func SameSemantics(a, b *Concrete) bool {
	d, r := DiffIndexed(NewCoverIndex(a), NewCoverIndex(b))
	return d.Len() == 0 && r.Len() == 0
}
