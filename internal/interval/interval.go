// Package interval implements the time-interval algebra underlying the
// concrete view of temporal databases (Golshanara & Chomicki, "Temporal
// Data Exchange").
//
// Time points are non-negative integers (the paper's domain N0, isomorphic
// to the natural numbers). An interval is half-open, [s, e), with s < e;
// the end point may be Infinity, written [s, inf), which abstracts an
// unbounded validity period. The package provides the operations the rest
// of the system is built on: containment, overlap, adjacency,
// intersection, and endpoint partitioning (the basis of instance
// normalization, paper §4.2).
package interval

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Time is a time point in N0. The special value Infinity is greater than
// every proper time point and is only meaningful as an interval end point.
type Time uint64

// Infinity is the unbounded end point. An interval [s, Infinity) denotes
// the infinite set of time points {s, s+1, ...}.
const Infinity Time = math.MaxUint64

// String renders the time point, using "inf" for Infinity.
func (t Time) String() string {
	if t == Infinity {
		return "inf"
	}
	return strconv.FormatUint(uint64(t), 10)
}

// ParseTime parses a decimal time point or the token "inf"/"∞".
func ParseTime(s string) (Time, error) {
	switch strings.TrimSpace(s) {
	case "inf", "∞", "infinity", "Inf", "INF":
		return Infinity, nil
	}
	v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("interval: bad time point %q: %w", s, err)
	}
	if Time(v) == Infinity {
		return 0, fmt.Errorf("interval: time point %d is reserved for infinity", v)
	}
	return Time(v), nil
}

// Interval is a half-open time interval [Start, End) with Start < End.
// End may be Infinity. The zero Interval is empty and invalid; construct
// intervals with New or Parse.
type Interval struct {
	Start Time
	End   Time
}

// ErrEmpty is returned when an operation would construct an empty or
// inverted interval.
var ErrEmpty = errors.New("interval: empty interval (start must be < end)")

// New returns the interval [s, e). It returns ErrEmpty when s >= e.
func New(s, e Time) (Interval, error) {
	if s >= e {
		return Interval{}, fmt.Errorf("%w: [%v, %v)", ErrEmpty, s, e)
	}
	if s == Infinity {
		return Interval{}, fmt.Errorf("interval: start may not be infinity")
	}
	return Interval{Start: s, End: e}, nil
}

// MustNew is New but panics on error. Intended for literals in tests and
// examples where the bounds are statically known to be valid.
func MustNew(s, e Time) Interval {
	iv, err := New(s, e)
	if err != nil {
		panic(err)
	}
	return iv
}

// Point returns the singleton interval [t, t+1) covering exactly t.
func Point(t Time) Interval {
	if t == Infinity {
		panic("interval: Point(Infinity)")
	}
	return Interval{Start: t, End: t + 1}
}

// IsZero reports whether iv is the zero (invalid) interval.
func (iv Interval) IsZero() bool { return iv == Interval{} }

// Valid reports whether iv is a well-formed non-empty interval.
func (iv Interval) Valid() bool { return iv.Start < iv.End && iv.Start != Infinity }

// Unbounded reports whether iv extends to infinity.
func (iv Interval) Unbounded() bool { return iv.End == Infinity }

// Len returns the number of time points in iv, and ok=false when the
// interval is unbounded.
func (iv Interval) Len() (n uint64, ok bool) {
	if iv.Unbounded() {
		return 0, false
	}
	return uint64(iv.End - iv.Start), true
}

// Contains reports whether the time point t lies in [Start, End).
func (iv Interval) Contains(t Time) bool {
	return iv.Start <= t && t < iv.End
}

// ContainsInterval reports whether other is fully inside iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	return iv.Start <= other.Start && other.End <= iv.End
}

// Overlaps reports whether the two intervals share at least one time
// point. Half-open semantics: [1,3) and [3,5) do not overlap.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// Adjacent reports whether the intervals abut without overlapping, i.e.
// one ends exactly where the other starts (paper §2: [s,e), [s',e') are
// adjacent if s' = e or s = e').
func (iv Interval) Adjacent(other Interval) bool {
	return iv.End == other.Start || other.End == iv.Start
}

// Intersect returns the common sub-interval and ok=false when the
// intervals are disjoint.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	s := max(iv.Start, other.Start)
	e := min(iv.End, other.End)
	if s >= e {
		return Interval{}, false
	}
	return Interval{Start: s, End: e}, true
}

// Union returns the smallest single interval covering both inputs and
// ok=false when they are neither overlapping nor adjacent (so a single
// interval cannot represent the union exactly).
func (iv Interval) Union(other Interval) (Interval, bool) {
	if !iv.Overlaps(other) && !iv.Adjacent(other) {
		return Interval{}, false
	}
	return Interval{Start: min(iv.Start, other.Start), End: max(iv.End, other.End)}, true
}

// Before reports whether iv lies strictly before other with a gap or
// exact adjacency (no shared points).
func (iv Interval) Before(other Interval) bool { return iv.End <= other.Start }

// Compare orders intervals by start, then end. It returns -1, 0, or +1.
func (iv Interval) Compare(other Interval) int {
	switch {
	case iv.Start < other.Start:
		return -1
	case iv.Start > other.Start:
		return 1
	case iv.End < other.End:
		return -1
	case iv.End > other.End:
		return 1
	}
	return 0
}

// String renders the interval in the paper's notation, e.g. "[2012,2014)"
// or "[2014,inf)".
func (iv Interval) String() string {
	return "[" + iv.Start.String() + "," + iv.End.String() + ")"
}

// Parse parses the paper's notation "[s,e)" (whitespace tolerated, "inf"
// accepted for the end point). The closing ")" is required; a closing "]"
// is rejected since all intervals are half-open.
func Parse(s string) (Interval, error) {
	t := strings.TrimSpace(s)
	if len(t) < 5 || t[0] != '[' || t[len(t)-1] != ')' {
		return Interval{}, fmt.Errorf("interval: %q is not of the form [s,e)", s)
	}
	body := t[1 : len(t)-1]
	parts := strings.Split(body, ",")
	if len(parts) != 2 {
		return Interval{}, fmt.Errorf("interval: %q must have exactly two endpoints", s)
	}
	start, err := ParseTime(parts[0])
	if err != nil {
		return Interval{}, err
	}
	end, err := ParseTime(parts[1])
	if err != nil {
		return Interval{}, err
	}
	return New(start, end)
}

// SplitAt splits iv at time point t into [Start, t) and [t, End). ok is
// false when t is not strictly inside the interval.
func (iv Interval) SplitAt(t Time) (left, right Interval, ok bool) {
	if t <= iv.Start || t >= iv.End {
		return Interval{}, Interval{}, false
	}
	return Interval{iv.Start, t}, Interval{t, iv.End}, true
}

// Fragment splits iv along the sorted cut points, keeping only cuts that
// fall strictly inside the interval. The returned fragments are
// consecutive, non-overlapping, and cover exactly iv. cuts need not be
// sorted or deduplicated.
func (iv Interval) Fragment(cuts []Time) []Interval {
	inside := make([]Time, 0, len(cuts))
	for _, c := range cuts {
		if c > iv.Start && c < iv.End {
			inside = append(inside, c)
		}
	}
	if len(inside) == 0 {
		return []Interval{iv}
	}
	slices.Sort(inside)
	inside = dedupTimes(inside)
	out := make([]Interval, 0, len(inside)+1)
	prev := iv.Start
	for _, c := range inside {
		out = append(out, Interval{prev, c})
		prev = c
	}
	out = append(out, Interval{prev, iv.End})
	return out
}

func dedupTimes(ts []Time) []Time {
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// Endpoints collects the distinct start and end points of the given
// intervals in ascending order. This is the sequence TP_Δ in Algorithm 1
// of the paper (§4.2).
func Endpoints(ivs []Interval) []Time {
	if len(ivs) == 0 {
		return nil
	}
	ts := make([]Time, 0, 2*len(ivs))
	for _, iv := range ivs {
		ts = append(ts, iv.Start, iv.End)
	}
	slices.Sort(ts)
	return dedupTimes(ts)
}

// CommonIntersection intersects all intervals. ok is false when the
// overall intersection is empty. The empty input yields ok=false.
func CommonIntersection(ivs []Interval) (Interval, bool) {
	if len(ivs) == 0 {
		return Interval{}, false
	}
	acc := ivs[0]
	for _, iv := range ivs[1:] {
		var ok bool
		acc, ok = acc.Intersect(iv)
		if !ok {
			return Interval{}, false
		}
	}
	return acc, true
}

// AllEqual reports whether every interval in ivs is identical. This is the
// second disjunct of the empty intersection property (Definition 10): the
// intersection of the facts' intervals equals their union exactly when all
// the intervals coincide.
func AllEqual(ivs []Interval) bool {
	if len(ivs) == 0 {
		return false
	}
	for _, iv := range ivs[1:] {
		if iv != ivs[0] {
			return false
		}
	}
	return true
}
