// Package tdx is the public engine API for temporal data exchange
// (Golshanara & Chomicki, SIGMOD 2016): translating data valid over time
// intervals from a source schema to a target schema under s-t tgds and
// egds, with incomplete information represented by interval-annotated
// nulls, and answering queries over the target with certain-answer
// semantics.
//
// The mapping is the fixed artifact; source instances are the variable
// input. Compile parses, validates, and compiles a mapping once into a
// reusable *Exchange — schemas and dependency plans — and every run
// executes against it, interning the values it creates into one overlay
// on its source's frozen value interner:
//
//	ex, err := tdx.Compile(mappingText)
//	src, err := ex.ParseSource(factsText)
//	sol, err := ex.Run(ctx, src)          // c-chase: a universal solution
//	ans, err := ex.Query(ctx, sol, "q")   // certain answers
//	db  := sol.Snapshot(2013)             // the abstract view at a point
//
// Runs need not start from scratch: a Solution retains its run's frozen
// state, and RunDelta extends it with new source facts via a semi-naive
// delta chase — firing only dependencies that touch the new facts —
// returning the combined solution (byte-identical to a full Run over
// base+delta) plus the Diff against the base:
//
//	sol2, diff, err := ex.RunDelta(ctx, sol, delta)
//
// Concurrency contract. An Exchange is immutable after Compile and safe
// for concurrent use: one compiled mapping serves any number of
// goroutines. An Instance is mutable-until-frozen: while mutable it is
// single-goroutine (even reads fill lazy caches); Instance.Freeze —
// called automatically by Run on its source — builds every lazy
// structure and flips it immutable, after which one instance may feed
// any number of concurrent Runs and concurrent reads, and writes to it
// panic. Solutions come back frozen, so Query, Snapshot, Answer, and
// every rendering accessor are safe from many goroutines against one
// Solution. Concurrency is between calls: each Run, Query and RunAbstract
// executes on its calling goroutine, one sequential c-chase per run.
// Behavior is configured with functional options at Compile time and
// overridable per call — WithNorm, WithEgdStrategy, WithCoalesce,
// WithTrace.
//
// Value interning. Every stored value is interned to a dense ID. Freezing
// an instance freezes its interner too, and a frozen interner is read
// without locks. Each run interns the values it creates — normalization
// fragments, head rows, nulls, head literals — into one overlay on its
// source's frozen interner, so a source ID is already a run ID and no
// run writes an interner another run can see. A returned solution's
// interner is frozen with it, and a RunDelta layers its own overlay on
// it; what a run interns is released with its Solution.
//
// All executing methods take a context.Context, checked throughout the
// chase loops (normalization passes, tgd rounds, egd iterations): a
// canceled or deadline-expired context stops the run promptly with an
// error wrapping the context's error, and never mutates the caller's
// source instance.
//
// Mappings whose tgd heads carry modal markers (past / future / always
// past / always future — the paper's §7 extension) compile and run
// transparently: Run dispatches to the temporal chase.
//
// The pipeline follows the paper: normalization (§4.2) fragments facts so
// intervals behave as constants, the concrete chase (§4.3) materializes a
// concrete solution Jc whose semantics ⟦Jc⟧ is a universal solution
// (Theorem 19), and naïve evaluation on Jc yields certain answers
// (Corollary 22). Run fails with an error wrapping ErrNoSolution when the
// setting admits no solution.
package tdx

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/jsonio"
	"repro/internal/logic"
	"repro/internal/normalize"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/temporal"
)

// ErrNoSolution is wrapped by every Run (and Answer) failure caused by an
// egd equating two distinct constants: the setting admits no solution.
var ErrNoSolution = chase.ErrNoSolution

// ErrNoWitness is wrapped by temporal-mapping runs whose modal operators
// admit no witness interval (e.g. "sometime in the past" at time 0).
var ErrNoWitness = temporal.ErrNoWitness

// Exchange is a compiled schema mapping: the one supported way to drive
// the engine. It bundles the validated mapping, the pre-compiled
// dependency plans and the declared queries, so the per-mapping work is
// paid once at Compile and amortized over every Run. It holds no value
// interner: each run interns into an overlay on its source's, so an
// Exchange does not grow with the inputs it serves. Exchanges are
// immutable and safe for concurrent use.
type Exchange struct {
	cfg     config
	cm      *chase.Compiled    // plain mappings
	tm      *temporal.Mapping  // §7 modal mappings (nil otherwise)
	tcm     *temporal.Compiled // compiled form of tm (nil for plain mappings)
	source  *schema.Schema
	target  *schema.Schema
	queries []query.UCQ
	byName  map[string]query.UCQ
	// normBodies are the concrete tgd bodies the source is normalized
	// against (derived from tm for temporal mappings).
	normBodies []logic.Conjunction
	// fp is the content hash identifying this exchange; see Fingerprint.
	fp string
}

// Compile parses, validates, and compiles a TDX mapping file into a
// reusable Exchange. The text may declare queries ("query q(n) :- ...");
// they become addressable by name in Query and Answer. Options set the
// exchange-wide defaults.
func Compile(mapping string, opts ...Option) (*Exchange, error) {
	f, err := parser.ParseMapping(mapping)
	if err != nil {
		return nil, err
	}
	if f.Temporal != nil {
		return fromTemporal(f.Temporal, f.Queries, opts)
	}
	return fromMapping(f.Mapping, f.Queries, opts)
}

// MustCompile is Compile but panics on error, for tests, examples, and
// mappings embedded as source constants.
func MustCompile(mapping string, opts ...Option) *Exchange {
	ex, err := Compile(mapping, opts...)
	if err != nil {
		panic(err)
	}
	return ex
}

// FromMapping compiles a programmatically built mapping — the bridge for
// module-internal callers (workload generators, experiment harnesses)
// that do not go through the text format.
func FromMapping(m *dependency.Mapping, opts ...Option) (*Exchange, error) {
	return fromMapping(m, nil, opts)
}

// FromTemporalMapping is FromMapping for §7 modal mappings.
func FromTemporalMapping(m *temporal.Mapping, opts ...Option) (*Exchange, error) {
	return fromTemporal(m, nil, opts)
}

func fromMapping(m *dependency.Mapping, queries []query.UCQ, opts []Option) (*Exchange, error) {
	if m == nil {
		return nil, fmt.Errorf("tdx: nil mapping")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cm, err := chase.CompileMapping(m)
	if err != nil {
		return nil, err
	}
	ex := &Exchange{
		cfg:        config{}.apply(opts),
		cm:         cm,
		source:     m.Source,
		target:     m.Target,
		normBodies: cm.TGDBodies(),
	}
	return ex.withQueries(queries)
}

func fromTemporal(m *temporal.Mapping, queries []query.UCQ, opts []Option) (*Exchange, error) {
	if m == nil {
		return nil, fmt.Errorf("tdx: nil mapping")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	tcm, err := temporal.CompileMapping(m)
	if err != nil {
		return nil, err
	}
	ex := &Exchange{
		cfg:        config{}.apply(opts),
		tm:         m,
		tcm:        tcm,
		source:     m.Source,
		target:     m.Target,
		normBodies: tcm.Bodies(),
	}
	return ex.withQueries(queries)
}

// withQueries validates and indexes the declared queries and computes
// the fingerprint.
func (ex *Exchange) withQueries(queries []query.UCQ) (*Exchange, error) {
	ex.queries = queries
	ex.byName = make(map[string]query.UCQ, len(queries))
	for _, u := range queries {
		if err := u.Validate(ex.target); err != nil {
			return nil, err
		}
		if _, dup := ex.byName[u.Name]; dup {
			return nil, fmt.Errorf("tdx: duplicate query name %q", u.Name)
		}
		ex.byName[u.Name] = u
	}
	ex.fp = ex.fingerprint()
	return ex, nil
}

// fingerprint computes the exchange's content hash: sha256 over the
// canonical mapping rendering and the output-affecting option
// fingerprint.
func (ex *Exchange) fingerprint() string {
	sum := sha256.Sum256([]byte(ex.Canonical() + "\x00" + ex.cfg.fingerprint()))
	return hex.EncodeToString(sum[:])
}

// Canonical returns the canonical text rendering of the compiled
// mapping and its declared queries — the exact string the fingerprint
// hashes. Two mapping texts differing only in whitespace, comments, or
// clause ordering render identically. Compiling the canonical text
// yields an exchange with the same fingerprint (given equal options),
// which is what lets tdxd's warm-start manifest persist mappings as
// text and replay them on boot.
func (ex *Exchange) Canonical() string {
	if ex.tm != nil {
		return parser.FormatTemporalMapping(ex.tm, ex.queries)
	}
	return parser.FormatMapping(ex.cm.Mapping(), ex.queries)
}

// RunFingerprint returns the fingerprint of the effective
// output-affecting options a Run with the given per-call overrides
// would execute under: the exchange's compile-time defaults with opts
// applied on top. Together with Fingerprint and a source-content hash
// it keys cached solutions (tdxd's run-snapshot cache): equal triples
// mean byte-identical solutions.
func (ex *Exchange) RunFingerprint(opts ...Option) string {
	return ex.cfg.apply(opts).fingerprint()
}

// Fingerprint returns the stable content hash identifying this compiled
// exchange: a hex sha256 over the canonical rendering of the mapping
// (schemas, dependencies, and declared queries — two texts differing
// only in whitespace or comments hash equal) combined with the
// fingerprint of the compile-time options that affect solutions
// (normalization strategy, egd strategy, coalescing; see
// OptionsFingerprint). Exchanges with equal fingerprints produce
// byte-identical solutions for every source instance, which is what
// makes the fingerprint a safe registry key: tdxd's compiled-exchange
// registry is keyed on it, and a client holding a fingerprint can
// address the exchange without re-sending the mapping. Any daemon that
// registers the same mapping with the same options gets the same
// fingerprint and serves the same bytes, so a client re-registers the
// mapping wherever the fingerprint is unknown.
func (ex *Exchange) Fingerprint() string { return ex.fp }

// Info summarizes a compiled exchange, for validation surfaces.
type Info struct {
	SourceRelations int
	TargetRelations int
	TGDs            int
	EGDs            int
	Queries         int
	Temporal        bool // the mapping uses §7 modal operators
}

// Info returns the exchange's shape.
func (ex *Exchange) Info() Info {
	info := Info{
		SourceRelations: ex.source.Len(),
		TargetRelations: ex.target.Len(),
		Queries:         len(ex.queries),
	}
	if ex.tm != nil {
		info.Temporal = true
		info.TGDs, info.EGDs = len(ex.tm.TGDs), len(ex.tm.EGDs)
	} else {
		m := ex.cm.Mapping()
		info.TGDs, info.EGDs = len(m.TGDs), len(m.EGDs)
	}
	return info
}

// Queries returns the names of the queries declared in the mapping file,
// in declaration order.
func (ex *Exchange) Queries() []string {
	out := make([]string, len(ex.queries))
	for i, u := range ex.queries {
		out[i] = u.Name
	}
	return out
}

// Mapping exposes the underlying plain mapping for module-internal
// tooling (nil for temporal mappings).
func (ex *Exchange) Mapping() *dependency.Mapping {
	if ex.cm == nil {
		return nil
	}
	return ex.cm.Mapping()
}

// Temporal exposes the underlying §7 modal mapping for module-internal
// tooling (nil for plain mappings).
func (ex *Exchange) Temporal() *temporal.Mapping { return ex.tm }

// ParseSource parses a TDX facts file into a source instance validated
// against the mapping's source schema. The instance is mutable (extend
// it with Concrete().Insert before running); Run freezes it, after
// which one instance may feed any number of concurrent Runs — no
// per-goroutine copies needed.
func (ex *Exchange) ParseSource(facts string) (*Instance, error) {
	c, err := parser.ParseFacts(facts, ex.source)
	if err != nil {
		return nil, err
	}
	return &Instance{c: c}, nil
}

// DecodeSourceJSON decodes a source instance from the TDX JSON format
// (Instance.JSON / jsonio), streaming from r and validating against the
// mapping's source schema. A hand-rolled scanner reads r through one
// 64 KiB window and inserts each fact as it is read, interning its plain
// constants straight from the fact's bytes, so a large request body
// never materializes as a document and decode memory is one window plus
// one fact's scratch — this is how tdxd turns request bodies into
// request-scoped sources. A schema section in the document is
// cross-checked against the mapping's source schema (same relations,
// same arities) rather than trusted.
func (ex *Exchange) DecodeSourceJSON(r io.Reader) (*Instance, error) {
	c, err := jsonio.DecodeReader(r, ex.source)
	if err != nil {
		return nil, err
	}
	return &Instance{c: c}, nil
}

// chaseOptions builds one run's chase options.
func (ex *Exchange) chaseOptions(ctx context.Context, cfg config) *chase.Options {
	return &chase.Options{
		Norm:  cfg.chaseNorm(),
		Egd:   cfg.chaseEgd(),
		Trace: cfg.chaseTrace(),
		Ctx:   ctx,
	}
}

// ctxOrBackground tolerates a nil context.
func ctxOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Run materializes a concrete universal solution for the source instance
// with the c-chase (§4.3) — or the temporal chase for §7 modal mappings —
// on the calling goroutine. The error wraps ErrNoSolution when the
// setting admits no solution, and ctx's error when the run is canceled
// or its deadline expires. Options override the exchange defaults for
// this run only.
//
// Run freezes src on entry (Run never writes to it; freezing makes that
// contract structural): afterwards src is immutable — writes to it panic
// — and may be shared by any number of concurrent Runs, which is how a
// server shares one parsed source across requests. The run interns what
// it creates into one overlay on src's frozen interner, so src's
// interner never grows. The returned Solution is frozen too, interner
// included, so Facts, Table, JSON, Snapshot, Query, and Diff on it are
// safe from any number of goroutines.
func (ex *Exchange) Run(ctx context.Context, src *Instance, opts ...Option) (*Solution, error) {
	ctx = ctxOrBackground(ctx)
	cfg := ex.cfg.apply(opts)
	src.Freeze()
	copts := ex.chaseOptions(ctx, cfg)
	var (
		jc    *instance.Concrete
		stats chase.Stats
		base  *chase.BaseState
		err   error
	)
	if ex.tm != nil {
		jc, stats, err = temporal.ChaseCompiled(src.c, ex.tcm, copts)
	} else {
		jc, stats, base, err = chase.ConcreteCompiled(src.c, ex.cm, copts)
	}
	if err != nil {
		return nil, err
	}
	if cfg.coalesce {
		jc = jc.Coalesce()
	}
	sol := &Solution{Instance: Instance{c: jc}, stats: stats, fp: ex.fp, base: base, src: src}
	sol.Freeze() // publish: Solution reads are concurrently safe
	return sol, nil
}

// Diff is the solution-level change set RunDelta reports: the semantic
// temporal difference between the new solution and the base solution,
// in both directions. Added holds the fact fragments (per time point)
// of the new solution absent from the base; Removed the reverse — egd
// merges triggered by new facts can rewrite or collapse base facts, so
// deltas are not purely additive. Both instances come back frozen and
// coalesced.
type Diff struct {
	Added   *Instance
	Removed *Instance
}

// RunDelta incrementally extends a previous Run: given the base
// solution sol (whose run retained its source, normalized source,
// intermediate target, and null-numbering position) and a delta
// instance of new source facts, it produces the solution of the
// combined source — byte-identical, null family ids included, to
// ex.Run over a source containing the base facts followed by the delta
// facts — plus the Diff between the new solution and sol.
//
// The fast path is a semi-naive delta chase: only homomorphisms
// touching the new facts fire, fresh nulls continue the base run's
// numbering, and egd rounds rewrite in place, touching retained base
// rows only up to an internal budget. When the retained state cannot
// prove byte-identity (temporal mappings, naive normalization, base
// reorderings, over-budget egd cascades), RunDelta transparently
// re-chases the combined source from scratch — the result is the same;
// Stats.FallbackFullChase reports which path ran. Either way the
// returned Solution retains state, so RunDelta calls chain: each
// result is a valid base for the next delta.
//
// Delta facts already present in the base source are ignored
// (Stats.DeltaFacts counts the genuinely new ones); an all-duplicate
// delta returns a solution equal to sol with an empty Diff. delta is
// frozen by the call; sol is never mutated. The error wraps
// ErrNoSolution when the combined setting admits none.
func (ex *Exchange) RunDelta(ctx context.Context, sol *Solution, delta *Instance, opts ...Option) (*Solution, *Diff, error) {
	ctx = ctxOrBackground(ctx)
	if sol == nil {
		return nil, nil, fmt.Errorf("tdx: RunDelta: nil base solution")
	}
	if sol.src == nil {
		return nil, nil, fmt.Errorf("tdx: RunDelta: the base solution retains no source (was it produced by Run of this exchange?)")
	}
	cfg := ex.cfg.apply(opts)
	delta.Freeze()

	var next *Solution
	if ex.tm == nil && sol.base != nil && sol.base.Compiled() == ex.cm {
		copts := ex.chaseOptions(ctx, cfg)
		jc, stats, base, err := chase.ConcreteDelta(sol.base, delta.c, copts)
		if err != nil {
			return nil, nil, err
		}
		if cfg.coalesce {
			jc = jc.Coalesce()
		}
		next = &Solution{Instance: Instance{c: jc}, stats: stats, fp: ex.fp, base: base, src: &Instance{c: base.Source()}}
		next.Freeze()
	} else {
		// Temporal mappings retain no chase state: re-run over the
		// combined source. Same result, no incrementality.
		combined := sol.src.Clone()
		deltaFacts := 0
		var insErr error
		delta.c.EachFact(func(f fact.CFact) bool {
			added, err := combined.c.Insert(f)
			if err != nil {
				insErr = fmt.Errorf("tdx: RunDelta: delta fact %v: %w", f, err)
				return false
			}
			if added {
				deltaFacts++
			}
			return true
		})
		if insErr != nil {
			return nil, nil, insErr
		}
		full, err := ex.Run(ctx, combined, opts...)
		if err != nil {
			return nil, nil, err
		}
		full.stats.DeltaFacts = deltaFacts
		full.stats.FallbackFullChase = true
		next = full
	}

	added, removed := instance.DiffIndexed(next.coverIndex(), sol.coverIndex())
	added.Freeze()
	removed.Freeze()
	return next, &Diff{Added: &Instance{c: added}, Removed: &Instance{c: removed}}, nil
}

// RunAbstract runs the abstract chase on ⟦src⟧ segment-wise (§3) — the
// semantic reference the c-chase is proven equivalent to (Corollary 20),
// exposed for verification and experiments. Segments are chased in
// order, so null family ids are deterministic. Not available for
// temporal mappings.
func (ex *Exchange) RunAbstract(ctx context.Context, src *Instance, opts ...Option) (*instance.Abstract, Stats, error) {
	ctx = ctxOrBackground(ctx)
	cfg := ex.cfg.apply(opts)
	if ex.tm != nil {
		return nil, Stats{}, fmt.Errorf("tdx: the abstract chase is not defined for temporal (§7) mappings")
	}
	return chase.Abstract(src.c.Abstract(), ex.cm.Mapping(), ex.chaseOptions(ctx, cfg))
}

// Normalize returns the source normalized w.r.t. the mapping's tgd
// bodies (paper §4.2) under the configured strategy — exposed for
// inspection; Run performs it internally. Under Smart, when no fact
// splits, a frozen src comes back as the same instance and an unfrozen
// one as a copy, so the result never aliases a mutable source.
func (ex *Exchange) Normalize(ctx context.Context, src *Instance, opts ...Option) (*Instance, error) {
	ctx = ctxOrBackground(ctx)
	cfg := ex.cfg.apply(opts)
	c, err := normalize.ForMappingCtx(ctx, src.c, ex.normBodies, cfg.chaseNorm())
	if err != nil {
		return nil, err
	}
	return &Instance{c: c}, nil
}

// Query computes the certain answers of q over an already materialized
// solution by naïve evaluation (§5; sound by Corollary 22 when sol came
// from Run). q is either the name of a query declared in the mapping
// file, an inline query in rule syntax ("query q(n) :- Emp(n, c, s)"),
// or empty when the mapping declares exactly one query.
func (ex *Exchange) Query(ctx context.Context, sol *Solution, q string) (*Instance, error) {
	u, err := ex.lookupQuery(q)
	if err != nil {
		return nil, err
	}
	return ex.queryResolved(ctx, sol, u)
}

// queryResolved evaluates an already-resolved query on a solution.
func (ex *Exchange) queryResolved(ctx context.Context, sol *Solution, u query.UCQ) (*Instance, error) {
	ans, err := query.NaiveEval(ctxOrBackground(ctx), u, sol.c)
	if err != nil {
		return nil, err
	}
	return &Instance{c: ans}, nil
}

// ValidateQuery resolves and validates a query argument without running
// anything: q is a declared query name, an inline query in rule syntax,
// or empty when the mapping declares exactly one query — the same
// resolution Query performs. Callers that pay for a chase before
// evaluating (servers, pipelines) use it to reject a bad query before
// the run instead of after.
func (ex *Exchange) ValidateQuery(q string) error {
	_, err := ex.lookupQuery(q)
	return err
}

// Answer computes the certain answers of q for a source instance end to
// end (Corollary 22): it runs the exchange, then evaluates. Use Run once
// and Query many times when one solution serves several queries.
func (ex *Exchange) Answer(ctx context.Context, src *Instance, q string, opts ...Option) (*Instance, error) {
	ctx = ctxOrBackground(ctx)
	// Resolve the query first: a bad query name should not cost a chase.
	u, err := ex.lookupQuery(q)
	if err != nil {
		return nil, err
	}
	sol, err := ex.Run(ctx, src, opts...)
	if err != nil {
		return nil, err
	}
	return ex.queryResolved(ctx, sol, u)
}

// Snapshot materializes the solution's abstract snapshot db_at — the
// plain relational database holding at time point at, with
// interval-annotated nulls projected to per-snapshot labeled nulls.
func (ex *Exchange) Snapshot(ctx context.Context, sol *Solution, at Time) (*Snapshot, error) {
	ctx = ctxOrBackground(ctx)
	select {
	case <-ctx.Done():
		return nil, fmt.Errorf("tdx: %w", ctx.Err())
	default:
	}
	return sol.c.Snapshot(at), nil
}

// lookupQuery resolves a query argument: declared name, inline rule
// text, or "" for the single declared query.
func (ex *Exchange) lookupQuery(q string) (query.UCQ, error) {
	q = strings.TrimSpace(q)
	if q == "" {
		switch len(ex.queries) {
		case 1:
			return ex.queries[0], nil
		case 0:
			return query.UCQ{}, errors.New("tdx: the mapping declares no queries; pass an inline query")
		default:
			return query.UCQ{}, fmt.Errorf("tdx: the mapping declares %d queries; pass a name or an inline query", len(ex.queries))
		}
	}
	if u, ok := ex.byName[q]; ok {
		return u, nil
	}
	if strings.Contains(q, ":-") {
		cq, err := parser.ParseQueryLine(q)
		if err != nil {
			return query.UCQ{}, err
		}
		u, err := query.NewUCQ(cq.Name, cq)
		if err != nil {
			return query.UCQ{}, err
		}
		if err := u.Validate(ex.target); err != nil {
			return query.UCQ{}, err
		}
		return u, nil
	}
	return query.UCQ{}, fmt.Errorf("tdx: no query named %q in the mapping (declared: %s)", q, strings.Join(ex.Queries(), ", "))
}
