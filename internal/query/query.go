// Package query implements query answering over the target schema
// (paper §5): unions of conjunctive queries, naïve evaluation on concrete
// solutions — the four-step q+(Jc)↓ procedure with normalization,
// null-freezing, evaluation, and null-dropping — and certain answers,
// which by Corollary 22 coincide with naïve evaluation on the c-chase
// result.
//
// Naïve evaluation runs on the solution's interned rows, where freezing
// is the identity: the interner gives each interval-annotated null
// (family and annotation) one ID and never gives that ID to a constant
// or to another null, so the ID already is the fresh constant the paper
// substitutes — shared by every fact holding the same unknown, so joins
// through it succeed, and distinct from every data constant, however the
// constant is spelled. Dropping a tuple that holds a frozen null is then
// a kind test on its IDs.
package query

import (
	"context"
	"fmt"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/logic"
	"repro/internal/normalize"
	"repro/internal/schema"
	"repro/internal/value"
)

// CQ is a conjunctive query q(x̄) :- body. Head lists the distinguished
// variables; Body is the non-temporal body over the target schema. The
// concrete form q+ appends the shared temporal variable to every atom and
// returns it as an extra answer column (the validity interval).
type CQ struct {
	Name string
	Head []string
	Body logic.Conjunction
}

// Validate checks safety: every head variable occurs in the body, and
// body relations/arities match the schema when one is given.
func (q CQ) Validate(sch *schema.Schema) error {
	if q.Name == "" {
		return fmt.Errorf("query: empty name")
	}
	if len(q.Body) == 0 {
		return fmt.Errorf("query %s: empty body", q.Name)
	}
	for _, h := range q.Head {
		if !q.Body.HasVar(h) {
			return fmt.Errorf("query %s: head variable %s does not occur in the body", q.Name, h)
		}
	}
	if sch != nil {
		for _, a := range q.Body {
			r, ok := sch.Relation(a.Rel)
			if !ok {
				return fmt.Errorf("query %s: unknown relation %s", q.Name, a.Rel)
			}
			if len(a.Terms) != r.Arity() {
				return fmt.Errorf("query %s: atom %s arity mismatch", q.Name, a)
			}
		}
	}
	return nil
}

// ConcreteBody returns the body of q+ with the shared temporal variable.
func (q CQ) ConcreteBody() logic.Conjunction {
	tgd := dependency.TGD{Body: q.Body}
	return tgd.ConcreteBody()
}

// String renders the query in rule form.
func (q CQ) String() string {
	head := q.Name + "("
	for i, h := range q.Head {
		if i > 0 {
			head += ", "
		}
		head += h
	}
	return head + ") :- " + q.Body.String()
}

// UCQ is a union of conjunctive queries with a common name and arity.
type UCQ struct {
	Name      string
	Disjuncts []CQ
}

// NewUCQ builds a validated union; all disjuncts must share name and
// arity.
func NewUCQ(name string, disjuncts ...CQ) (UCQ, error) {
	if len(disjuncts) == 0 {
		return UCQ{}, fmt.Errorf("query: union %s needs at least one disjunct", name)
	}
	arity := len(disjuncts[0].Head)
	for _, d := range disjuncts {
		if d.Name != name {
			return UCQ{}, fmt.Errorf("query: disjunct %s in union %s", d.Name, name)
		}
		if len(d.Head) != arity {
			return UCQ{}, fmt.Errorf("query %s: disjunct arity %d, want %d", name, len(d.Head), arity)
		}
	}
	return UCQ{Name: name, Disjuncts: disjuncts}, nil
}

// Arity returns the number of answer columns (excluding the interval).
func (u UCQ) Arity() int {
	if len(u.Disjuncts) == 0 {
		return 0
	}
	return len(u.Disjuncts[0].Head)
}

// Validate validates every disjunct.
func (u UCQ) Validate(sch *schema.Schema) error {
	if len(u.Disjuncts) == 0 {
		return fmt.Errorf("query: union %s is empty", u.Name)
	}
	for _, d := range u.Disjuncts {
		if err := d.Validate(sch); err != nil {
			return err
		}
	}
	return nil
}

// EvalSnapshot evaluates the union on one abstract snapshot under naïve
// semantics — nulls are treated as ordinary values during matching — and
// returns the distinct answer tuples. When certainOnly is set, tuples
// containing nulls are dropped (the ↓ operator), yielding q(db)↓.
func EvalSnapshot(u UCQ, snap *instance.Snapshot, certainOnly bool) []fact.Fact {
	seen := make(map[string]bool)
	var out []fact.Fact
	for _, q := range u.Disjuncts {
		logic.ForEach(snap.Store(), q.Body, nil, func(m logic.Match) bool {
			args := make([]value.Value, len(q.Head))
			hasNull := false
			for i, h := range q.Head {
				args[i] = m.Binding[h]
				if args[i].IsNullLike() {
					hasNull = true
				}
			}
			if certainOnly && hasNull {
				return true
			}
			f := fact.New(u.Name, args...)
			if k := f.Key(); !seen[k] {
				seen[k] = true
				out = append(out, f)
			}
			return true
		})
	}
	return out
}

// NaiveEval computes q+(Jc)↓ per §5: for each disjunct q′, (1) normalize
// Jc w.r.t. q′, (2) replace interval-annotated nulls with fresh
// constants, (3) evaluate q′+ finding all homomorphisms — the temporal
// variable maps to a time interval which becomes the answer's validity
// interval — and (4) drop tuples containing fresh constants. Step 2 is
// the identity on interned IDs (see the package comment), so step 3
// enumerates the normalized solution's own rows — Jc itself when nothing
// splits — and builds facts only for the answers step 4 keeps. The
// union of the disjuncts' answers is returned as a coalesced concrete
// instance over the answer relation u.Name. The normalization and the
// enumeration abort promptly with the context's error once ctx is done.
// Concurrent evaluations may share one frozen jc.
func NaiveEval(ctx context.Context, u UCQ, jc *instance.Concrete) (*instance.Concrete, error) {
	out := instance.NewConcrete(nil)
	for _, q := range u.Disjuncts {
		body := q.ConcreteBody()
		// Step 1 — normalize w.r.t. q′ and synchronize null families, so
		// that one null ID stands for one unknown per time range and
		// joins through a shared unknown still succeed.
		normed, err := normalize.ForEgdPhaseCtx(ctx, jc, []logic.Conjunction{body}, normalize.StrategySmart)
		if err != nil {
			return nil, err
		}
		in := normed.Interner()
		args := make([]value.Value, len(q.Head))
		matches := 0
		var stepErr error
		logic.ForEachIDs(normed.Store(), body, nil, func(m *logic.IDMatch) bool { // step 3
			matches++
			if matches&63 == 0 {
				if err := ctx.Err(); err != nil {
					stepErr = fmt.Errorf("query: %w", err)
					return false
				}
			}
			tid, ok := m.ID(dependency.TemporalVar)
			if !ok {
				return true // the empty body binds no interval
			}
			for i, h := range q.Head {
				id, _ := m.ID(h)
				if in.KindOf(id) == value.AnnNull {
					return true // step 4
				}
				args[i] = in.Resolve(id)
			}
			t, _ := in.Resolve(tid).Interval()
			out.MustInsert(fact.NewC(u.Name, t, args...))
			return true
		})
		if stepErr != nil {
			return nil, stepErr
		}
	}
	return out.Coalesce(), nil
}

// CertainAnswers computes certain(q, ⟦Ic⟧, M) by Corollary 22: run the
// c-chase to obtain a concrete universal solution, then naïvely evaluate
// the query on it. The error wraps chase.ErrNoSolution when the chase
// fails (no solution ⇒ certain answers are undefined; by convention every
// tuple is vacuously certain, which the caller must decide how to
// surface). Cancellation of opts.Ctx covers both stages.
func CertainAnswers(u UCQ, ic *instance.Concrete, m *dependency.Mapping, opts *chase.Options) (*instance.Concrete, error) {
	jc, _, err := chase.Concrete(ic, m, opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if opts != nil && opts.Ctx != nil {
		ctx = opts.Ctx
	}
	return NaiveEval(ctx, u, jc)
}

// CertainAbstract computes the sequence certain(q, Ja) — q(db)↓ per
// snapshot — for a finitely represented abstract instance, returned as a
// coalesced concrete instance over the answer relation (answers are
// constant tuples, so the concrete representation is exact). This is the
// right-hand side of Theorem 21.
func CertainAbstract(u UCQ, ja *instance.Abstract) *instance.Concrete {
	out := instance.NewConcrete(nil)
	for _, seg := range ja.Segments() {
		snap := ja.Snapshot(seg.Iv.Start)
		for _, ans := range EvalSnapshot(u, snap, true) {
			out.MustInsert(fact.NewC(u.Name, seg.Iv, ans.Args...))
		}
	}
	return out.Coalesce()
}
