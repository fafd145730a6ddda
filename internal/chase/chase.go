// Package chase implements the two chase procedures of the paper: the
// abstract chase, applied snapshot-wise to the abstract view (§3), and
// the concrete chase (c-chase) on concrete instances (§4.3, Definition
// 16). A successful c-chase materializes a concrete solution Jc whose
// semantics ⟦Jc⟧ is a universal solution for ⟦Ic⟧ (Theorem 19); a failing
// chase proves no solution exists.
//
// The c-chase runs four stages:
//
//  1. source normalization: normalize Ic w.r.t. the tgd bodies (§4.2).
//     Ic is frozen first, so when Smart splits no fact the normalized
//     source is Ic itself;
//  2. tgd phase (tgdPhase): fire every s-t tgd on every homomorphism
//     into the normalized source, inventing a fresh interval-annotated
//     null N^h(t) per existential variable per firing; bodies read only
//     the source, so one pass reaches the tgd fixpoint. The phase has one
//     kernel, on interned IDs (tgd.go);
//  3. egd phase (concreteEgds): rounds of renormalizing the target w.r.t.
//     the egd bodies, scanning the bodies for merge candidates, merging
//     them in a union-find (mergeStep) and rewriting the target, until a
//     round merges nothing; equating two distinct constants fails;
//  4. freeze: the solution and the run's intermediates are frozen and
//     retained in a BaseState.
//
// Smart normalization renormalizes in every egd round, because
// identifying a null with a constant can reveal egd homomorphisms between
// facts whose intervals properly overlap; Naive fragments on the global
// endpoint partition once, which egd rewrites never change.
//
// The entry points compose these stages:
//
//   - ConcreteCompiled runs stages 1–4; Concrete compiles the mapping
//     first and drops the BaseState.
//   - ConcreteDelta runs semi-naive forms of stages 1–3 seeded from a
//     BaseState, then stage 4, and falls back to ConcreteCompiled when it
//     cannot prove the result byte-identical (see delta.go).
//   - EgdPhase runs stage 3 alone, for the temporal (§7) chase, which
//     brings its own stages 1 and 2.
//   - Abstract and Pointwise run the snapshot chase — stages 2 and 3 on
//     one snapshot, with plain bodies and no normalization — per segment
//     or per time point.
//
// Each stage is one streaming loop on the calling goroutine: a match is
// acted on as it is enumerated (see tgd.go and egd.go), so the output,
// null numbering and trace are a function of the input alone.
// Concurrency lives between runs: a frozen source and a Compiled mapping
// may be shared by any number of concurrent runs.
package chase

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/normalize"
	"repro/internal/value"
)

// ErrNoSolution is wrapped by every failure of an egd chase step that
// equates two distinct constants: by Proposition 4/Theorem 19 no solution
// exists for the source instance.
var ErrNoSolution = errors.New("chase: no solution exists")

// FailError carries the details of a failing egd chase step.
type FailError struct {
	Dep    string      // label of the violated egd
	V1, V2 value.Value // the two distinct constants being equated
}

func (e *FailError) Error() string {
	return fmt.Sprintf("chase: egd %s equates distinct constants %v and %v: no solution exists", e.Dep, e.V1, e.V2)
}

// Unwrap makes errors.Is(err, ErrNoSolution) work.
func (e *FailError) Unwrap() error { return ErrNoSolution }

// EgdStrategy selects how equality generating dependencies are applied.
type EgdStrategy int

const (
	// EgdBatch collects every violated equality in a round, merges them
	// in one union-find pass, and rewrites the instance once per round
	// (the default; asymptotically cheaper).
	EgdBatch EgdStrategy = iota
	// EgdStepwise applies one equality at a time and re-searches, the
	// textbook chase-step formulation. Used as the ablation baseline.
	EgdStepwise
)

func (s EgdStrategy) String() string {
	if s == EgdStepwise {
		return "stepwise"
	}
	return "batch"
}

// Options configures a chase run. The zero value is the default
// configuration: Algorithm 1 normalization and batch egd application.
type Options struct {
	// Norm selects the normalization algorithm (paper §4.2).
	Norm normalize.Strategy
	// Egd selects the egd application strategy.
	Egd EgdStrategy
	// Trace, when set, receives one Event per chase action (normalization
	// passes, tgd firings, egd merges, failures). For debugging and the
	// CLI's -trace flag; adds no cost when nil. The abstract and pointwise
	// chases emit no events.
	Trace func(Event)
	// Ctx, when set, is checked throughout the chase loops — normalization
	// passes, tgd firing rounds, egd match enumeration and rewrite rounds —
	// so long chases can be canceled or deadline-bounded. On cancellation
	// the chase stops promptly and returns an error wrapping ctx.Err();
	// instances under construction are abandoned and the caller's source
	// instance is never mutated (the chase never writes to it). Nil means
	// context.Background (never canceled).
	Ctx context.Context
}

func (o *Options) norm() normalize.Strategy {
	if o == nil {
		return normalize.StrategySmart
	}
	return o.Norm
}

func (o *Options) egd() EgdStrategy {
	if o == nil {
		return EgdBatch
	}
	return o.Egd
}

// tracing reports whether a trace hook is installed, so hot loops can
// skip argument evaluation for emit entirely.
func (o *Options) tracing() bool { return o != nil && o.Trace != nil }

// ctx returns the run's context, Background when none was configured.
func (o *Options) ctx() context.Context {
	if o == nil || o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// ctxErr reports the context's error without blocking: nil while the
// context is live, a wrapped ctx.Err() once it is done. Hot loops call it
// every few dozen iterations through a counter; Background's nil Done
// channel makes the check a single select with an always-ready default.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("chase: %w", ctx.Err())
	default:
		return nil
	}
}

// ctxCheckMask throttles in-loop context checks: positions with
// (i & ctxCheckMask) == 0 pay the select. 64 keeps cancellation latency
// in the microseconds while adding nothing measurable to the loops.
const ctxCheckMask = 63

// Stats reports what a chase run did, for the experiment harness. The
// JSON encoding uses stable lowerCamel field names — it is the wire form
// shared by tdxd run responses and the CLI's -json -stats output, so the
// names are a compatibility surface: add fields freely, never rename.
type Stats struct {
	NormalizedSourceFacts int `json:"normalizedSourceFacts"` // source facts after normalization
	TGDHoms               int `json:"tgdHoms"`               // homomorphisms found for s-t tgd bodies
	TGDFires              int `json:"tgdFires"`              // tgd chase steps that actually fired
	FactsCreated          int `json:"factsCreated"`          // target facts added by tgd steps
	NullsCreated          int `json:"nullsCreated"`          // fresh interval-annotated nulls
	EgdRounds             int `json:"egdRounds"`             // egd rounds (normalize + merge + rewrite)
	EgdMerges             int `json:"egdMerges"`             // value identifications applied
	NormalizeRuns         int `json:"normalizeRuns"`         // normalization passes over the target
	RowsRewritten         int `json:"rowsRewritten"`         // rows touched by incremental egd rewrites
	TGDWorkers            int `json:"tgdWorkers"`            // 1 once the tgd phase ran: the chase has one worker
	EgdWorkers            int `json:"egdWorkers"`            // 1 once an egd round ran: the chase has one worker

	// Incremental (delta) chase observability; zero on full runs.
	DeltaFacts        int  `json:"deltaFacts"`        // genuinely new source facts the delta contributed
	DeltaFires        int  `json:"deltaFires"`        // tgd steps fired from delta-involving homomorphisms
	BaseRowsRewritten int  `json:"baseRowsRewritten"` // retained base-solution rows rewritten by delta egd merges
	FallbackFullChase bool `json:"fallbackFullChase"` // the delta run gave up and re-chased base+delta from scratch
}

// Add accumulates o into s, for chases assembled from several runs:
// counters add, the worker fields keep the larger value (1 once any run
// set them), and FallbackFullChase is set when either side set it.
func (s *Stats) Add(o Stats) {
	s.NormalizedSourceFacts += o.NormalizedSourceFacts
	s.TGDHoms += o.TGDHoms
	s.TGDFires += o.TGDFires
	s.FactsCreated += o.FactsCreated
	s.NullsCreated += o.NullsCreated
	s.EgdRounds += o.EgdRounds
	s.EgdMerges += o.EgdMerges
	s.NormalizeRuns += o.NormalizeRuns
	s.RowsRewritten += o.RowsRewritten
	s.TGDWorkers = max(s.TGDWorkers, o.TGDWorkers)
	s.EgdWorkers = max(s.EgdWorkers, o.EgdWorkers)
	s.DeltaFacts += o.DeltaFacts
	s.DeltaFires += o.DeltaFires
	s.BaseRowsRewritten += o.BaseRowsRewritten
	s.FallbackFullChase = s.FallbackFullChase || o.FallbackFullChase
}

// valueUF is an integer union-find over interned value IDs with constant
// absorption: the canonical representative of a class containing a
// constant is that constant; two distinct constants in one class are a
// chase failure. Storage is sparse: IDs are mapped to dense slots on
// first touch, so memory is proportional to the values actually merged,
// not to the ID space, which spans the source's interner and every level
// layered on it. The tree structure is merged by rank and find uses
// iterative path halving (no recursion, so arbitrarily long merge chains
// cannot overflow the stack); the *canonical* representative of each class is tracked
// separately per root, because the chase needs a deterministic output —
// the smallest value of the class by value.Compare (a constant when
// present) — independent of union order and tree shape.
type valueUF struct {
	in      *value.Interner
	slot    map[value.ID]int32 // ID → dense slot; absent = never touched
	parent  []int32
	rank    []uint8
	repr    []value.ID // per root slot: the canonical representative
	changed []value.ID // IDs that stopped being canonical, in merge order
	merges  int
}

func newValueUF(in *value.Interner) *valueUF { return &valueUF{in: in} }

// ensure returns id's dense slot, allocating one on first touch.
func (u *valueUF) ensure(id value.ID) int32 {
	if id == value.NoID {
		// A NoID here means a caller fed an unbound variable into the
		// union-find, which the egd loops guard against.
		panic("chase: NoID in union-find")
	}
	if u.slot == nil {
		u.slot = make(map[value.ID]int32)
	}
	s, ok := u.slot[id]
	if !ok {
		s = int32(len(u.parent))
		u.slot[id] = s
		u.parent = append(u.parent, s)
		u.rank = append(u.rank, 0)
		u.repr = append(u.repr, id)
	}
	return s
}

// findSlot returns the root slot of s's class, compressing the path.
func (u *valueUF) findSlot(s int32) int32 {
	for u.parent[s] != s {
		u.parent[s] = u.parent[u.parent[s]] // path halving
		s = u.parent[s]
	}
	return s
}

// find returns the root slot of id's class.
func (u *valueUF) find(id value.ID) int32 { return u.findSlot(u.ensure(id)) }

// canon returns the canonical representative of id's class (id itself if
// never merged).
func (u *valueUF) canon(id value.ID) value.ID {
	s, ok := u.slot[id]
	if !ok {
		return id
	}
	return u.repr[u.findSlot(s)]
}

// isConst reports whether an ID denotes a constant, without
// materializing the value.
func (u *valueUF) isConst(id value.ID) bool { return u.in.KindOf(id) == value.Const }

// union merges the classes of a and b. It fails exactly when that would
// equate two distinct constants (the failing egd chase step of
// Definition 16).
func (u *valueUF) union(a, b value.ID) error {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return nil
	}
	va, vb := u.repr[ra], u.repr[rb]
	ca, cb := u.isConst(va), u.isConst(vb)
	var rep value.ID
	switch {
	case ca && cb:
		return fmt.Errorf("cannot equate constants %v and %v", u.in.Resolve(va), u.in.Resolve(vb))
	case ca:
		rep = va
	case cb:
		rep = vb
	default:
		// Both nulls: deterministic representative (smaller value wins) so
		// chase output does not depend on iteration order.
		if value.Compare(u.in.Resolve(va), u.in.Resolve(vb)) < 0 {
			rep = va
		} else {
			rep = vb
		}
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.repr[ra] = rep
	// Exactly one previously-canonical value loses canonicity per union
	// (a non-canonical ID never becomes canonical again), so changed
	// accumulates the full substitution domain without duplicates.
	if rep == va {
		u.changed = append(u.changed, vb)
	} else {
		u.changed = append(u.changed, va)
	}
	u.merges++
	return nil
}

// substituted returns the IDs whose canonical representative differs
// from themselves — the domain of the substitution this union-find
// encodes. The slice is owned by the union-find; do not mutate.
func (u *valueUF) substituted() []value.ID { return u.changed }

// dirty reports whether any merge has been recorded.
func (u *valueUF) dirty() bool { return u.merges > 0 }

// EventKind classifies trace events.
type EventKind int

const (
	// EventNormalize reports a normalization pass and its output size.
	EventNormalize EventKind = iota
	// EventTGDFire reports one s-t tgd chase step.
	EventTGDFire
	// EventEgdMerge reports one value identification by an egd.
	EventEgdMerge
	// EventEgdFail reports the failing egd step (no solution).
	EventEgdFail
)

func (k EventKind) String() string {
	switch k {
	case EventNormalize:
		return "normalize"
	case EventTGDFire:
		return "tgd-fire"
	case EventEgdMerge:
		return "egd-merge"
	case EventEgdFail:
		return "egd-fail"
	}
	return "unknown"
}

// Event is one step of a chase run, delivered to Options.Trace.
type Event struct {
	Kind   EventKind
	Dep    string // dependency label, when applicable
	Detail string // human-readable specifics
}

func (e Event) String() string {
	if e.Dep != "" {
		return fmt.Sprintf("%s %s: %s", e.Kind, e.Dep, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Kind, e.Detail)
}

// emit delivers an event to the trace hook when one is installed.
func (o *Options) emit(kind EventKind, dep, format string, args ...any) {
	if o == nil || o.Trace == nil {
		return
	}
	o.Trace(Event{Kind: kind, Dep: dep, Detail: fmt.Sprintf(format, args...)})
}
