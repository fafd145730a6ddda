package value

import (
	"fmt"

	"repro/internal/interval"
)

// Values returns a copy of the value table of the interner's whole
// chain in ID order: Values()[i] is the value whose issued ID is i,
// whichever level issued it. Together with NewInternerFromValues it is
// the serialization boundary of the interner: persisting the table and
// rebuilding from it reproduces the exact ID assignment, so persisted ID
// columns remain valid against the rebuilt (flat) interner.
func (in *Interner) Values() []Value {
	locked := in.rlock()
	out := make([]Value, 0, int(in.base)+len(in.vals))
	for _, p := range in.chain {
		out = append(out, p.vals...)
	}
	out = append(out, in.vals...)
	if locked {
		in.mu.RUnlock()
	}
	return out
}

// NewInternerFromValues rebuilds an interner whose value table is exactly
// vals: the value at index i gets ID i, reproducing the dense assignment
// of the interner that produced the table (IDs are issued in table
// order). It rejects tables that no interner could have produced — an
// entry of invalid kind, or two entries interning equal — so corrupt
// persisted tables surface as errors instead of corrupt stores.
func NewInternerFromValues(vals []Value) (*Interner, error) {
	if len(vals) >= int(NoID) {
		return nil, fmt.Errorf("value: table of %d values overflows the ID space", len(vals))
	}
	// Count kinds up front and size each per-kind map exactly: a bulk
	// rebuild otherwise spends most of its time growing maps through
	// their doublings (the warm-start load path rebuilds tables of tens
	// of thousands of values in one call).
	var nConst, nNull, nAnn, nIv int
	for _, v := range vals {
		switch v.K {
		case Const:
			nConst++
		case Null:
			nNull++
		case AnnNull:
			nAnn++
		case IntervalVal:
			nIv++
		}
	}
	in := &Interner{
		serial: serials.Add(1),
		consts: make(map[string]ID, nConst),
		nulls:  make(map[nullKey]ID, nNull),
		anns:   make(map[annKey]ID, nAnn),
		ivs:    make(map[interval.Interval]ID, nIv),
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.vals = make([]Value, 0, len(vals))
	in.kinds = make([]Kind, 0, len(vals))
	for i, v := range vals {
		switch v.K {
		case Const, Null, AnnNull, IntervalVal:
		default:
			return nil, fmt.Errorf("value: table entry %d has invalid kind %d", i, v.K)
		}
		if id, dup := in.local(v); dup {
			return nil, fmt.Errorf("value: table entries %d and %d intern the same value %v", id, i, v)
		}
		in.storeLocked(v, ID(i))
		in.vals = append(in.vals, v)
		in.kinds = append(in.kinds, v.K)
	}
	return in, nil
}
