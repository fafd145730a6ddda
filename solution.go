package tdx

import (
	"io"
	"sync"

	"repro/internal/chase"
	"repro/internal/coreof"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/jsonio"
	"repro/internal/parser"
	"repro/internal/render"
)

// Time is a time point of the discrete timeline.
type Time = interval.Time

// Infinity is the open upper end point of unbounded intervals.
const Infinity = interval.Infinity

// ParseTime parses a time point ("2013", "inf", ...).
func ParseTime(s string) (Time, error) { return interval.ParseTime(s) }

// Snapshot is one abstract snapshot db_t of an instance: the plain
// relational database holding at a single time point, with
// interval-annotated nulls projected to per-snapshot labeled nulls
// (paper §2, §4.1).
type Snapshot = instance.Snapshot

// Stats reports what a chase run did: normalization passes, tgd
// homomorphisms and firings, nulls invented, egd rounds/merges, and rows
// touched by incremental rewrites.
type Stats = chase.Stats

// Instance is a concrete temporal database instance: a finite set of
// interval-timestamped facts. Instances are produced by
// Exchange.ParseSource, ParseInstance, and the exchange pipeline itself;
// they render as fact lines (Facts) or per-relation tables (Table) and
// support the semantic operations of the paper — snapshots, coalescing,
// and temporal difference.
//
// An Instance is mutable-until-frozen. While mutable it is
// single-goroutine: matching, rendering, and membership checks fill lazy
// caches, so even read-only sharing races. Freeze (called automatically
// by Exchange.Run on its source and its solution) builds every lazy
// structure eagerly and flips the instance to immutable — a frozen
// instance is safe for any number of concurrent readers and any number
// of concurrent Runs, while writes to it panic. Clone returns a mutable
// copy. The compiled Exchange is freely shareable in all states.
type Instance struct {
	c *instance.Concrete
}

// Freeze publishes the instance for concurrent use: the posting-list
// indexes reads consult are built eagerly and the instance becomes
// immutable — afterwards any number of goroutines may run exchanges on
// it, query it, snapshot it, render it, or clone it concurrently, and any
// write to it panics. Its value interner freezes too: a frozen interner
// is read without locks, so readers decode rows from their ID columns
// without a lock, and every Run on the instance interns into its own
// overlay on it. Freeze is idempotent and returns the same instance for
// chaining.
// Exchange.Run freezes its source and its solution automatically; call
// Freeze yourself to publish a parsed instance before fanning out.
func (i *Instance) Freeze() *Instance {
	i.c.Freeze()
	i.c.Interner().Freeze()
	return i
}

// Frozen reports whether the instance has been frozen.
func (i *Instance) Frozen() bool { return i.c.Frozen() }

// NewInstance wraps an existing concrete instance for use with the tdx
// API. This is the bridge for module-internal callers (generators,
// experiment harnesses) that construct instances programmatically.
func NewInstance(c *instance.Concrete) *Instance { return &Instance{c: c} }

// ParseInstance parses a TDX facts file into a schemaless instance — for
// tooling over bare fact files (e.g. temporal diffing); use
// Exchange.ParseSource to validate against a mapping's source schema.
func ParseInstance(facts string) (*Instance, error) {
	c, err := parser.ParseFacts(facts, nil)
	if err != nil {
		return nil, err
	}
	return &Instance{c: c}, nil
}

// Concrete exposes the underlying representation for module-internal
// tooling (verification, core computation, experiment harnesses).
func (i *Instance) Concrete() *instance.Concrete { return i.c }

// Len returns the number of facts.
func (i *Instance) Len() int { return i.c.Len() }

// Facts renders the instance in the TDX fact-line format, which parses
// back via ParseInstance / Exchange.ParseSource.
func (i *Instance) Facts() string { return parser.FormatFacts(i.c) }

// Table renders the instance as per-relation tables, one row per fact.
func (i *Instance) Table() string { return render.Instance(i.c) }

// String renders the facts one per line, deterministically sorted.
func (i *Instance) String() string { return i.c.String() }

// IsCoalesced reports whether facts with identical data values have
// pairwise disjoint, non-adjacent intervals (paper §2).
func (i *Instance) IsCoalesced() bool { return i.c.IsCoalesced() }

// IsComplete reports whether the instance is null-free.
func (i *Instance) IsComplete() bool { return i.c.IsComplete() }

// Coalesce returns the canonical coalesced equivalent: intervals of
// facts sharing data values merged into maximal disjoint intervals.
func (i *Instance) Coalesce() *Instance { return &Instance{c: i.c.Coalesce()} }

// Clone returns an independent copy; clones may be mutated (and chased)
// independently. A clone of a frozen instance interns new values into an
// overlay on its frozen interner.
func (i *Instance) Clone() *Instance { return &Instance{c: i.c.Clone()} }

// Equal reports whether both instances contain exactly the same facts.
func (i *Instance) Equal(other *Instance) bool { return i.c.Equal(other.c) }

// Diff returns the semantic temporal difference i minus other: the facts
// (fragments) holding in i but not in other, per time point.
func (i *Instance) Diff(other *Instance) *Instance {
	return &Instance{c: instance.Diff(i.c, other.c)}
}

// Snapshot materializes the abstract snapshot db_at = ⟦i⟧(at).
func (i *Instance) Snapshot(at Time) *Snapshot { return i.c.Snapshot(at) }

// JSON encodes the instance in the TDX JSON format. It buffers the whole
// document; for large instances prefer WriteJSON, which streams the same
// bytes.
func (i *Instance) JSON() ([]byte, error) { return jsonio.Encode(i.c) }

// WriteJSON streams the instance's TDX JSON document to w —
// byte-identical to JSON — without materializing the fact set or the
// document: the encoder walks the columnar store relation by relation
// (validity-bitmap row scan, a row sort on interned IDs, each row decoded
// into one reused buffer, a reused scratch buffer flushed in bounded
// chunks), so writing an n-fact solution costs
// O(1) allocations per fact and holds at most one flush chunk in memory
// regardless of n. On a frozen instance (every Solution is one) it is
// safe for concurrent callers. This is the path tdxd serves solution
// documents through, and what `tdx chase -json` prints with.
func (i *Instance) WriteJSON(w io.Writer) error { return jsonio.EncodeTo(w, i.c) }

// DecodeJSON decodes an instance from the TDX JSON format (the inverse
// of Instance.JSON).
func DecodeJSON(data []byte) (*Instance, error) {
	c, err := jsonio.Decode(data)
	if err != nil {
		return nil, err
	}
	return &Instance{c: c}, nil
}

// Solution is the outcome of a successful exchange: the materialized
// concrete solution Jc (whose semantics ⟦Jc⟧ is a universal solution for
// the source, Theorem 19) together with the run's statistics. It embeds
// Instance, so all rendering, coalescing, snapshot, and diff operations
// apply directly. Solutions come back frozen from Run: all read
// accessors (Facts, Table, JSON, Snapshot, Query, Diff, Stats) are safe
// for any number of concurrent goroutines.
type Solution struct {
	Instance
	stats Stats

	// fp is the fingerprint of the exchange that produced this solution,
	// recorded in snapshots as provenance.
	fp string

	// Retained incremental-chase state: the frozen source this solution
	// was chased from, and (for non-temporal mappings) the chase-layer
	// base state RunDelta resumes from. Both stay nil on solutions not
	// produced by Run/RunDelta. The solution's interner is its run's
	// overlay on the source's, so the retained state shares it. See the
	// retention note on WithRunInterner for the memory trade-off.
	base *chase.BaseState
	src  *Instance

	// coverOnce/cover lazily memoize the data-identity coverage index of
	// the frozen solution, so a chain of RunDelta calls builds each
	// solution's index once instead of once per diff side.
	coverOnce sync.Once
	cover     *instance.CoverIndex
}

// coverIndex returns the solution's memoized coverage index, building
// it on first use. Safe for concurrent callers: the solution is frozen
// and the index is read-only once built.
func (s *Solution) coverIndex() *instance.CoverIndex {
	s.coverOnce.Do(func() { s.cover = instance.NewCoverIndex(s.c) })
	return s.cover
}

// Stats reports what the chase did.
func (s *Solution) Stats() Stats { return s.stats }

// Coalesce returns the solution in canonical coalesced form, keeping the
// statistics and the retained incremental-chase state.
func (s *Solution) Coalesce() *Solution {
	return &Solution{Instance: *s.Instance.Coalesce(), stats: s.stats, fp: s.fp, base: s.base, src: s.src}
}

// Core shrinks the solution to its snapshot-wise core — the smallest
// homomorphically equivalent solution (§7 extension).
func (s *Solution) Core() *Solution {
	return &Solution{Instance: Instance{c: coreof.Of(s.c)}, stats: s.stats, fp: s.fp, base: s.base, src: s.src}
}
