// Package temporal implements the paper's §7 (future work) extension:
// schema mappings that can express temporal phenomena via modal
// operators. A temporal s-t tgd has a non-temporal body evaluated at a
// time point t, and head atoms tagged with a temporal reference:
//
//	AtT          ψ holds at t itself (the base case of the paper)
//	SometimePast ◆ψ — ψ held at some t' < t
//	SometimeFut  ♦ψ — ψ will hold at some t' > t
//	AlwaysPast   ⊟ψ — ψ held at every t' < t
//	AlwaysFut    ⊞ψ — ψ holds at every t' > t
//
// The paper's example (two-sorted FOL form):
//
//	∀n, t PhDgrad(n, t) → ∃adv, top, t' PhDCan(n, adv, top, t') ∧ t' < t
//
// is the SometimePast case. The chase is extended per the paper's
// sketch: a chase step picks witness snapshots for the existential
// temporal variables. This implementation makes the canonical
// deterministic choices documented on Chase; the result is always a
// solution (verified by Satisfies), but — answering the paper's open
// question in the negative — not necessarily a universal one: distinct
// admissible witness choices yield homomorphically incomparable
// solutions (see the package tests).
package temporal

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/normalize"
	"repro/internal/schema"
	"repro/internal/value"
)

// Ref is the temporal reference of a head atom relative to the
// universally quantified time point t of the dependency.
type Ref int

const (
	// AtT asserts the head atom at t itself.
	AtT Ref = iota
	// SometimePast asserts the atom at some strictly earlier point (◆).
	SometimePast
	// SometimeFut asserts the atom at some strictly later point (♦).
	SometimeFut
	// AlwaysPast asserts the atom at every strictly earlier point (⊟).
	AlwaysPast
	// AlwaysFut asserts the atom at every strictly later point (⊞).
	AlwaysFut
)

func (r Ref) String() string {
	switch r {
	case SometimePast:
		return "◆"
	case SometimeFut:
		return "♦"
	case AlwaysPast:
		return "⊟"
	case AlwaysFut:
		return "⊞"
	default:
		return ""
	}
}

// HeadAtom is a target atom with its temporal reference.
type HeadAtom struct {
	Atom logic.Atom
	Ref  Ref
}

// TGD is a temporal source-to-target dependency: a non-temporal body
// (evaluated snapshot-wise, as in the paper's base case) and a head of
// temporally referenced atoms sharing one existential witness point per
// Ref class.
type TGD struct {
	Name string
	Body logic.Conjunction
	Head []HeadAtom
}

// Existentials returns the head data variables not bound by the body.
func (d TGD) Existentials() []string {
	bodyVars := make(map[string]bool)
	for _, v := range d.Body.Vars() {
		bodyVars[v] = true
	}
	var out []string
	seen := make(map[string]bool)
	for _, h := range d.Head {
		for _, v := range h.Atom.Vars() {
			if !bodyVars[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Validate checks the dependency against the schemas.
func (d TGD) Validate(src, tgt *schema.Schema) error {
	if len(d.Body) == 0 || len(d.Head) == 0 {
		return fmt.Errorf("temporal tgd %s: empty body or head", d.Name)
	}
	plain := dependency.TGD{Name: d.Name, Body: d.Body, Head: d.headConjunction()}
	if err := plain.Validate(src, tgt); err != nil {
		return err
	}
	// An existential data variable must stay within one temporal
	// reference class: the concrete view cannot express "the same unknown
	// value at two different times" (interval-annotated nulls denote
	// per-snapshot unknowns; cross-time identity needs the richer
	// c-table machinery of Koubarakis cited in §6).
	bodyVars := make(map[string]bool)
	for _, v := range d.Body.Vars() {
		bodyVars[v] = true
	}
	refOf := make(map[string]Ref)
	for _, h := range d.Head {
		for _, v := range h.Atom.Vars() {
			if bodyVars[v] {
				continue
			}
			if prev, seen := refOf[v]; seen && prev != h.Ref {
				return fmt.Errorf("temporal tgd %s: existential %s spans temporal references %v and %v", d.Name, v, prev, h.Ref)
			}
			refOf[v] = h.Ref
		}
	}
	return nil
}

func (d TGD) headConjunction() logic.Conjunction {
	out := make(logic.Conjunction, len(d.Head))
	for i, h := range d.Head {
		out[i] = h.Atom
	}
	return out
}

// String renders the dependency with modal markers.
func (d TGD) String() string {
	s := d.Body.String() + " → "
	if ex := d.Existentials(); len(ex) > 0 {
		s += "∃"
		for i, v := range ex {
			if i > 0 {
				s += ","
			}
			s += v
		}
		s += ". "
	}
	for i, h := range d.Head {
		if i > 0 {
			s += " ∧ "
		}
		s += h.Ref.String() + h.Atom.String()
	}
	return s
}

// Mapping is a data exchange setting with temporal s-t tgds alongside
// plain (non-temporal) egds on the target.
type Mapping struct {
	Source *schema.Schema
	Target *schema.Schema
	TGDs   []TGD
	EGDs   []dependency.EGD
}

// Validate checks the whole setting.
func (m *Mapping) Validate() error {
	if m.Source == nil || m.Target == nil {
		return errors.New("temporal: source and target schemas are required")
	}
	if !m.Source.Disjoint(m.Target) {
		return errors.New("temporal: schemas must be disjoint")
	}
	for _, d := range m.TGDs {
		if err := d.Validate(m.Source, m.Target); err != nil {
			return err
		}
	}
	for _, d := range m.EGDs {
		if err := d.Validate(m.Target); err != nil {
			return err
		}
	}
	return nil
}

// ErrNoWitness is wrapped when a past-referencing head fires at a body
// interval starting at time 0: there is no earlier time point in N0, so
// no solution can satisfy the dependency there.
var ErrNoWitness = errors.New("temporal: no admissible witness time point exists")

// witnessInterval returns the concrete interval at which a head atom with
// the given reference is materialized, for a body match at interval
// [s, e). The canonical choices are:
//
//	AtT          [s, e)                 — the base case
//	SometimePast [s−1, s)               — one point before every ℓ ∈ [s,e)
//	SometimeFut  [e, e+1), or [s+1, ∞) when e = ∞
//	AlwaysPast   [0, e−1) — every point strictly before some ℓ ∈ [s,e)
//	AlwaysFut    [s+1, ∞)
//
// SometimePast at s = 0 has no admissible witness (ErrNoWitness):
// discrete time starts at 0.
func witnessInterval(ref Ref, t interval.Interval) (interval.Interval, bool, error) {
	switch ref {
	case AtT:
		return t, true, nil
	case SometimePast:
		if t.Start == 0 {
			return interval.Interval{}, false, fmt.Errorf("%w: ◆ at time 0", ErrNoWitness)
		}
		return interval.Interval{Start: t.Start - 1, End: t.Start}, true, nil
	case SometimeFut:
		if t.Unbounded() {
			return interval.Interval{Start: t.Start + 1, End: interval.Infinity}, true, nil
		}
		return interval.Interval{Start: t.End, End: t.End + 1}, true, nil
	case AlwaysPast:
		// Required points: ∪_{ℓ∈[s,e)} [0, ℓ) = [0, e−1); empty when the
		// match is the single point 0.
		last := t.End
		if last == interval.Infinity {
			return interval.Interval{Start: 0, End: interval.Infinity}, true, nil
		}
		if last-1 == 0 {
			return interval.Interval{}, false, nil // vacuously satisfied
		}
		return interval.Interval{Start: 0, End: last - 1}, true, nil
	case AlwaysFut:
		return interval.Interval{Start: t.Start + 1, End: interval.Infinity}, true, nil
	}
	return interval.Interval{}, false, fmt.Errorf("temporal: unknown ref %d", ref)
}

// Chase runs the temporal c-chase: normalize the source w.r.t. the tgd
// bodies, fire each temporal tgd with the canonical witness choice above
// (fresh interval-annotated nulls per existential data variable, one
// family per Ref class so the same unknown links the head atoms of one
// firing where their intervals coincide), then run the plain egd phase.
//
// The result is a solution (Satisfies reports true on success) but not in
// general universal — the paper's §7 question; see the package tests for
// a counterexample.
func Chase(ic *instance.Concrete, m *Mapping, opts *chase.Options) (*instance.Concrete, chase.Stats, error) {
	cm, err := CompileMapping(m)
	if err != nil {
		return nil, chase.Stats{}, err
	}
	return ChaseCompiled(ic, cm, opts)
}

// Compiled is a temporal mapping compiled for repeated chase runs: the
// concrete tgd bodies and the compiled egd-phase mapping are derived
// once, mirroring chase.Compiled for plain mappings. Read-only after
// construction; safe to share across concurrent runs.
type Compiled struct {
	m      *Mapping
	bodies []logic.Conjunction // concrete tgd bodies (normalization Φ+)
	egds   *chase.Compiled     // the tgd-less egd-phase mapping
}

// CompileMapping derives the reusable artifacts of a temporal mapping.
func CompileMapping(m *Mapping) (*Compiled, error) {
	bodies := make([]logic.Conjunction, len(m.TGDs))
	for i, d := range m.TGDs {
		bodies[i] = dependency.TGD{Body: d.Body}.ConcreteBody()
	}
	egds, err := chase.CompileMapping(&dependency.Mapping{Source: m.Source, Target: m.Target, EGDs: m.EGDs})
	if err != nil {
		return nil, err
	}
	return &Compiled{m: m, bodies: bodies, egds: egds}, nil
}

// Mapping returns the underlying temporal mapping.
func (c *Compiled) Mapping() *Mapping { return c.m }

// Bodies returns the concrete tgd bodies — the Φ+ set the source is
// normalized against. Shared; do not mutate.
func (c *Compiled) Bodies() []logic.Conjunction { return c.bodies }

// ChaseCompiled is Chase against a pre-compiled mapping — the
// compile-once/run-many entry point the tdx facade uses.
func ChaseCompiled(ic *instance.Concrete, cm *Compiled, opts *chase.Options) (*instance.Concrete, chase.Stats, error) {
	var stats chase.Stats
	var gen value.NullGen
	m, bodies := cm.m, cm.bodies
	ctx := context.Background()
	if opts != nil && opts.Ctx != nil {
		ctx = opts.Ctx
	}

	src, err := normalize.ForMappingCtx(ctx, ic, bodies, normalize.StrategySmart)
	if err != nil {
		return nil, stats, err
	}
	stats.NormalizeRuns++
	stats.NormalizedSourceFacts = src.Len()

	// One interner per run, as in chase.ConcreteCompiled: the target
	// shares the normalized source's interner, or layers an overlay on it
	// when it is the frozen source's, so the run never writes ic's.
	tgt := instance.NewConcreteWith(m.Target, src.Interner())
	for i, d := range m.TGDs {
		ms := logic.FindAll(src.Store(), bodies[i], nil)
		stats.TGDHoms += len(ms)
		for hi, h := range ms {
			if hi&63 == 0 {
				select {
				case <-ctx.Done():
					return nil, stats, fmt.Errorf("temporal: %w", ctx.Err())
				default:
				}
			}
			tv := h.Binding[dependency.TemporalVar]
			t, ok := tv.Interval()
			if !ok {
				return nil, stats, fmt.Errorf("temporal: tgd %s: temporal variable unbound", d.Name)
			}
			// Satisfaction pre-check: if every head atom already holds at
			// its witness range under some extension, skip (chase step
			// applicability). Checked per head atom conservatively: fire
			// unless all AtT atoms extend — modal atoms always re-checked
			// cheaply by Contains on the canonical witness.
			if d.alreadySatisfied(tgt, h.Binding, t) {
				continue
			}
			stats.TGDFires++
			ext := h.Binding.Clone()
			for _, ha := range d.Head {
				wiv, needed, err := witnessInterval(ha.Ref, t)
				if err != nil {
					return nil, stats, fmt.Errorf("temporal: tgd %s fired at %v: %w", d.Name, t, err)
				}
				if !needed {
					continue
				}
				args := make([]value.Value, len(ha.Atom.Terms))
				for j, term := range ha.Atom.Terms {
					v, bound := ext.Apply(term)
					if !bound {
						// Existential data variable: one fresh family per
						// (firing, variable). Validation guarantees the
						// variable stays within one Ref class, so every
						// occurrence shares this witness interval.
						v = gen.FreshAnn(wiv)
						ext[term.Name] = v
						stats.NullsCreated++
					}
					args[j] = v.WithAnnotation(wiv)
				}
				added, err := tgt.Insert(fact.NewC(ha.Atom.Rel, wiv, args...))
				if err != nil {
					return nil, stats, fmt.Errorf("temporal: tgd %s: %w", d.Name, err)
				}
				if added {
					stats.FactsCreated++
				}
			}
		}
	}

	// Plain egd phase via the standard machinery, pre-compiled. tgt was
	// built by this run, so the egd phase takes it over.
	out, egdStats, err := chase.EgdPhase(tgt, cm.egds, opts)
	stats.Add(egdStats)
	return out, stats, err
}

// alreadySatisfied reports whether the head of d is already witnessed for
// the body match at interval t — the chase-step applicability check.
// Head atoms are checked independently, which is sound only when no
// unbound existential is shared between two atoms (independent checks
// could otherwise borrow witnesses from different firings); for shared
// existentials the check conservatively reports false — firing again is
// harmless (inserts deduplicate, egds reconcile), skipping is not.
func (d TGD) alreadySatisfied(tgt *instance.Concrete, b logic.Binding, t interval.Interval) bool {
	seenIn := make(map[string]int)
	for _, ha := range d.Head {
		for _, v := range ha.Atom.Vars() {
			if _, bound := b[v]; bound {
				continue
			}
			seenIn[v]++
			if seenIn[v] > 1 {
				return false // shared unbound existential: fire
			}
		}
	}
	for _, ha := range d.Head {
		if !headAtomSatisfied(tgt, ha, b, t) {
			return false
		}
	}
	return true
}

// headAtomSatisfied checks one temporally referenced atom against the
// current target, for a body match at interval t.
func headAtomSatisfied(tgt *instance.Concrete, ha HeadAtom, b logic.Binding, t interval.Interval) bool {
	// Ground the data terms that the body binds; unbound (existential)
	// terms become fresh search variables.
	terms := make([]logic.Term, 0, len(ha.Atom.Terms)+1)
	for _, term := range ha.Atom.Terms {
		if v, ok := b.Apply(term); ok {
			terms = append(terms, logic.Lit(v))
		} else {
			terms = append(terms, logic.Var("?ex:"+term.Name))
		}
	}
	last := t.End
	switch ha.Ref {
	case AtT:
		// Every point of t must be covered by matching facts.
		return coveredAtEvery(tgt, ha.Atom.Rel, terms, t)
	case SometimePast:
		// For every ℓ in t there must be a matching fact strictly before ℓ.
		// Monotone in ℓ, so checking ℓ = start suffices.
		if t.Start == 0 {
			return false
		}
		return existsBefore(tgt, ha.Atom.Rel, terms, t.Start)
	case SometimeFut:
		// For every ℓ there must be a match strictly after ℓ; hardest at
		// the last point.
		if t.Unbounded() {
			return coveredCofinally(tgt, ha.Atom.Rel, terms)
		}
		return existsAfter(tgt, ha.Atom.Rel, terms, last-1)
	case AlwaysPast:
		if last == interval.Infinity {
			return coveredAtEvery(tgt, ha.Atom.Rel, terms, interval.Interval{Start: 0, End: interval.Infinity})
		}
		if last-1 == 0 {
			return true
		}
		return coveredAtEvery(tgt, ha.Atom.Rel, terms, interval.Interval{Start: 0, End: last - 1})
	case AlwaysFut:
		return coveredAtEvery(tgt, ha.Atom.Rel, terms, interval.Interval{Start: t.Start + 1, End: interval.Infinity})
	}
	return false
}

// matchingIntervals collects the validity intervals of facts matching the
// (partially ground) atom, ignoring the temporal position.
func matchingIntervals(tgt *instance.Concrete, rel string, terms []logic.Term) interval.Set {
	var set interval.Set
	conj := logic.Conjunction{{Rel: rel, Terms: append(append([]logic.Term(nil), terms...), logic.Var("?civ"))}}
	logic.ForEach(tgt.Store(), conj, nil, func(m logic.Match) bool {
		if iv, ok := m.Binding["?civ"].Interval(); ok {
			set.Add(iv)
		}
		return true
	})
	return set
}

func coveredAtEvery(tgt *instance.Concrete, rel string, terms []logic.Term, iv interval.Interval) bool {
	set := matchingIntervals(tgt, rel, terms)
	return set.ContainsInterval(iv)
}

func existsBefore(tgt *instance.Concrete, rel string, terms []logic.Term, tp interval.Time) bool {
	set := matchingIntervals(tgt, rel, terms)
	mn, ok := set.Min()
	return ok && mn < tp
}

func existsAfter(tgt *instance.Concrete, rel string, terms []logic.Term, tp interval.Time) bool {
	set := matchingIntervals(tgt, rel, terms)
	for _, iv := range set.Intervals() {
		if iv.End > tp+1 { // some point strictly greater than tp
			return true
		}
	}
	return false
}

func coveredCofinally(tgt *instance.Concrete, rel string, terms []logic.Term) bool {
	set := matchingIntervals(tgt, rel, terms)
	return set.Unbounded()
}
