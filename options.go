package tdx

import (
	"fmt"

	"repro/internal/chase"
	"repro/internal/normalize"
)

// Norm selects the normalization algorithm (paper §4.2).
type Norm int

const (
	// NormSmart is the paper's Algorithm 1: only facts participating in
	// overlapping match sets are fragmented (the default).
	NormSmart Norm = iota
	// NormNaive fragments every fact on the global endpoint partition:
	// O(n log n), larger output, stable under egd rewrites.
	NormNaive
)

func (n Norm) String() string {
	if n == NormNaive {
		return "naive"
	}
	return "smart"
}

// ParseNorm parses a normalization strategy name ("smart" or "naive";
// "" means smart), for flag and config surfaces.
func ParseNorm(s string) (Norm, error) {
	switch s {
	case "smart", "":
		return NormSmart, nil
	case "naive":
		return NormNaive, nil
	}
	return NormSmart, fmt.Errorf("tdx: unknown normalization strategy %q (want smart or naive)", s)
}

// EgdStrategy selects how equality generating dependencies are applied.
type EgdStrategy int

const (
	// EgdBatch collects every violated equality in a round, merges them in
	// one union-find pass, and rewrites the instance once per round (the
	// default; asymptotically cheaper).
	EgdBatch EgdStrategy = iota
	// EgdStepwise applies one equality at a time and re-searches — the
	// textbook chase-step formulation, kept as the ablation baseline.
	EgdStepwise
)

func (s EgdStrategy) String() string {
	if s == EgdStepwise {
		return "stepwise"
	}
	return "batch"
}

// ParseEgdStrategy parses an egd strategy name ("batch" or "stepwise";
// "" means batch), for flag and config surfaces.
func ParseEgdStrategy(s string) (EgdStrategy, error) {
	switch s {
	case "batch", "":
		return EgdBatch, nil
	case "stepwise":
		return EgdStepwise, nil
	}
	return EgdBatch, fmt.Errorf("tdx: unknown egd strategy %q (want batch or stepwise)", s)
}

// Event is one step of a chase run, delivered to a WithTrace hook: the
// event kind ("normalize", "tgd-fire", "egd-merge", "egd-fail"), the
// dependency label when one applies, and human-readable detail.
type Event struct {
	Kind   string
	Dep    string
	Detail string
}

func (e Event) String() string {
	if e.Dep != "" {
		return fmt.Sprintf("%s %s: %s", e.Kind, e.Dep, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Kind, e.Detail)
}

// config is the resolved option set of an Exchange (or of one Run, when
// per-call options override it).
type config struct {
	norm     Norm
	egd      EgdStrategy
	coalesce bool
	trace    func(Event)
}

// Option configures an Exchange at Compile time; the executing methods
// Run, RunAbstract, Normalize, and Answer also accept Options as
// per-call overrides. (Query evaluates an already-materialized solution,
// so it has nothing to override.)
type Option func(*config)

// WithNorm selects the normalization algorithm.
func WithNorm(n Norm) Option { return func(c *config) { c.norm = n } }

// WithEgdStrategy selects how egds are applied.
func WithEgdStrategy(s EgdStrategy) Option { return func(c *config) { c.egd = s } }

// WithCoalesce makes Run return the coalesced solution (the compact form
// of the paper's Figure 9), merging the intervals of facts with
// identical data values into maximal disjoint intervals.
func WithCoalesce(on bool) Option { return func(c *config) { c.coalesce = on } }

// WithTrace installs a hook receiving one Event per chase action
// (normalization passes, tgd firings, egd merges, failures). Nil removes
// a previously installed hook. The hook is invoked synchronously from
// the chase; when an Exchange is shared across goroutines the hook must
// be safe for concurrent use.
func WithTrace(fn func(Event)) Option { return func(c *config) { c.trace = fn } }

// WithRunInterner is a no-op, kept so existing callers compile. Every
// run already has its own interner: Run freezes its source, interner
// included, and interns what the run creates — normalization fragments,
// head rows, nulls, head literals — into one overlay on the source's
// frozen interner, which is read without locks. No run writes an
// interner another run or request can see, and an Exchange holds no
// interner that grows with its inputs.
//
// Retention: every Solution pins the frozen state a later RunDelta
// resumes from — the source, the normalized source (the source itself
// when normalization splits no fact, so it costs nothing extra), the
// pre-egd intermediate target (for mappings with egds), and the
// null-numbering position — roughly a constant small multiple of the
// solution's own footprint. They share the run's overlay, which holds
// only the values the run created; the source's interner stays with the
// source. All of it is released when the Solution is dropped, so callers
// that never use RunDelta pay only while they hold the Solution; servers
// holding many live sessions should bound them (tdxd does, see its
// -max-sessions flag).
func WithRunInterner() Option { return func(*config) {} }

// fingerprint renders the output-affecting option values into a stable
// string. Normalization strategy, egd strategy, and coalescing change
// the solution an exchange produces, so they are part of an exchange's
// identity. Trace hooks are debug-only and excluded.
func (c config) fingerprint() string {
	return fmt.Sprintf("norm=%s egd=%s coalesce=%t", c.norm, c.egd, c.coalesce)
}

// OptionsFingerprint renders the output-affecting options (normalization
// strategy, egd strategy, coalescing) into the stable string that
// Exchange.Fingerprint folds into its hash. Two option lists with equal
// fingerprints compile mappings into exchanges producing byte-identical
// solutions; options that cannot change solutions (WithRunInterner,
// WithTrace) are excluded. Registries deduplicating compilation key
// their pre-compile lookups on this plus the mapping text.
func OptionsFingerprint(opts ...Option) string {
	return config{}.apply(opts).fingerprint()
}

// chaseNorm translates the public strategy to the internal one.
func (c config) chaseNorm() normalize.Strategy {
	if c.norm == NormNaive {
		return normalize.StrategyNaive
	}
	return normalize.StrategySmart
}

// chaseEgd translates the public strategy to the internal one.
func (c config) chaseEgd() chase.EgdStrategy {
	if c.egd == EgdStepwise {
		return chase.EgdStepwise
	}
	return chase.EgdBatch
}

// chaseTrace adapts the public trace hook to the internal event type.
func (c config) chaseTrace() func(chase.Event) {
	if c.trace == nil {
		return nil
	}
	fn := c.trace
	return func(e chase.Event) {
		fn(Event{Kind: e.Kind.String(), Dep: e.Dep, Detail: e.Detail})
	}
}

// apply returns c with the given options applied on top.
func (c config) apply(opts []Option) config {
	for _, o := range opts {
		o(&c)
	}
	return c
}
