// Package repro's root benchmark suite regenerates the measured
// experiments of cmd/tdxbench as testing.B benchmarks, one group per
// tdxbench experiment id (tdxbench -list):
//
//	perf-norm   BenchmarkNormalizeSmart / BenchmarkNormalizeNaive
//	thm13       BenchmarkNormalizeWorstCase
//	perf-chase  BenchmarkCChase / BenchmarkSegmentChase / BenchmarkPointwiseChase
//	perf-query  BenchmarkNaiveEval / BenchmarkCertainAnswers
//	abl-egd     BenchmarkEgdBatch / BenchmarkEgdStepwise
//	abl-norm    BenchmarkChaseNormStrategy
//	(plus BenchmarkCoalesce and the homomorphism-search benchmarks in
//	internal/logic)
package tdx

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/chase"
	"repro/internal/coreof"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/jsonio"
	"repro/internal/logic"
	"repro/internal/normalize"
	"repro/internal/paperex"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/temporal"
	"repro/internal/value"
	"repro/internal/workload"
)

// employment returns a deterministic source instance of roughly n facts.
func employment(persons int) *instance.Concrete {
	return workload.Employment(workload.EmploymentConfig{
		Seed: 1, Persons: persons, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 200,
	})
}

// BenchmarkNormalizeSmart runs Algorithm 1 on employment sources, and in
// its settled row on the frozen normalized output of the largest one: a
// pass that enumerates every match set, splits nothing and returns its
// input.
func BenchmarkNormalizeSmart(b *testing.B) {
	m := paperex.EmploymentMapping()
	for _, persons := range []int{50, 200, 800} {
		ic := employment(persons)
		b.Run(fmt.Sprintf("facts=%d", ic.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := normalize.Smart(ic, m.TGDBodies())
				if out.Len() < ic.Len() {
					b.Fatal("normalization lost facts")
				}
			}
		})
	}
	settled := normalize.Smart(employment(800), m.TGDBodies())
	settled.Freeze()
	b.Run("settled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if normalize.Smart(settled, m.TGDBodies()) != settled {
				b.Fatal("a normalized frozen source was copied")
			}
		}
	})
}

func BenchmarkNormalizeNaive(b *testing.B) {
	for _, persons := range []int{50, 200, 800} {
		ic := employment(persons)
		b.Run(fmt.Sprintf("facts=%d", ic.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := normalize.Naive(ic)
				if out.Len() < ic.Len() {
					b.Fatal("normalization lost facts")
				}
			}
		})
	}
}

func BenchmarkNormalizeWorstCase(b *testing.B) {
	// Theorem 13: the staircase forces O(n²) fragments.
	for _, n := range []int{16, 64, 256} {
		ic := workload.Staircase(n)
		phi := workload.StaircasePhi()
		b.Run(fmt.Sprintf("staircase=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := normalize.Smart(ic, phi)
				if out.Len() != n*n {
					b.Fatalf("fragments = %d, want %d", out.Len(), n*n)
				}
			}
		})
	}
}

func BenchmarkCChase(b *testing.B) {
	cases := []struct {
		name string
		ic   *instance.Concrete
		m    func() *chase.Options
	}{
		{"paper-figure4", paperex.Figure4(), nil},
		{"employment-200", employment(200), nil},
	}
	m := paperex.EmploymentMapping()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := chase.Concrete(c.ic, m, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("medical-200", func(b *testing.B) {
		mm := workload.MedicalMapping()
		ic := workload.Medical(workload.MedicalConfig{Seed: 42, Patients: 200, Span: 120})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := chase.Concrete(ic, mm, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("taxi-150", func(b *testing.B) {
		tm := workload.TaxiMapping()
		ic := workload.Taxi(workload.TaxiConfig{Seed: 7, Drivers: 150, Cabs: 60, Span: 100})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := chase.Concrete(ic, tm, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// chaseSpanBase is the fixed instance dilated across timeline spans.
func chaseSpanBase() *instance.Concrete {
	return workload.Employment(workload.EmploymentConfig{
		Seed: 3, Persons: 12, JobsPerPerson: 2, SalaryCoverage: 0.8, Span: 20,
	})
}

func BenchmarkSegmentChase(b *testing.B) {
	m := paperex.EmploymentMapping()
	for _, k := range []interval.Time{1, 16, 64} {
		ic := chase.Dilate(chaseSpanBase(), k)
		ia := ic.Abstract()
		b.Run(fmt.Sprintf("dilation=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := chase.Abstract(ia, m, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPointwiseChase(b *testing.B) {
	// The literal per-time-point semantics of §3: linear in the span.
	m := paperex.EmploymentMapping()
	for _, k := range []interval.Time{1, 16, 64} {
		ic := chase.Dilate(chaseSpanBase(), k)
		horizon := interval.Time(0)
		for _, f := range ic.Facts() {
			if f.T.End != interval.Infinity && f.T.End > horizon {
				horizon = f.T.End
			}
		}
		b.Run(fmt.Sprintf("dilation=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := chase.Pointwise(ic, m, horizon, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCChaseSpanIndependence(b *testing.B) {
	// Companion to BenchmarkPointwiseChase: the same dilations through the
	// c-chase — time should stay flat as the span grows.
	m := paperex.EmploymentMapping()
	for _, k := range []interval.Time{1, 16, 64} {
		ic := chase.Dilate(chaseSpanBase(), k)
		b.Run(fmt.Sprintf("dilation=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := chase.Concrete(ic, m, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func empQuery(b *testing.B) query.UCQ {
	u, err := query.NewUCQ("q", query.CQ{Name: "q", Head: []string{"n", "s"},
		Body: logic.Conjunction{logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s"))}})
	if err != nil {
		b.Fatal(err)
	}
	return u
}

func BenchmarkNaiveEval(b *testing.B) {
	m := paperex.EmploymentMapping()
	u := empQuery(b)
	for _, persons := range []int{50, 200, 400} {
		jc, _, err := chase.Concrete(employment(persons), m, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("solution=%d", jc.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ans, err := query.NaiveEval(context.Background(), u, jc)
				if err != nil {
					b.Fatal(err)
				}
				if ans.Len() == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

func BenchmarkCertainAnswers(b *testing.B) {
	// End to end: chase + evaluate.
	m := paperex.EmploymentMapping()
	u := empQuery(b)
	ic := employment(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.CertainAnswers(u, ic, m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEgdBatch(b *testing.B) {
	for _, cfg := range []struct{ groups, k int }{{20, 4}, {40, 8}} {
		m := workload.EgdStressMapping(cfg.k)
		ic := workload.EgdStress(cfg.groups, cfg.k)
		b.Run(fmt.Sprintf("groups=%d/k=%d", cfg.groups, cfg.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := chase.Concrete(ic, m, &chase.Options{Egd: chase.EgdBatch}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEgdStepwise(b *testing.B) {
	for _, cfg := range []struct{ groups, k int }{{20, 4}, {40, 8}} {
		m := workload.EgdStressMapping(cfg.k)
		ic := workload.EgdStress(cfg.groups, cfg.k)
		b.Run(fmt.Sprintf("groups=%d/k=%d", cfg.groups, cfg.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := chase.Concrete(ic, m, &chase.Options{Egd: chase.EgdStepwise}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChaseNormStrategy(b *testing.B) {
	m := paperex.EmploymentMapping()
	ic := employment(100)
	for _, strat := range []normalize.Strategy{normalize.StrategySmart, normalize.StrategyNaive} {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := chase.Concrete(ic, m, &chase.Options{Norm: strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCoalesce(b *testing.B) {
	// Coalescing a heavily fragmented instance back to canonical form.
	ic := normalize.Naive(employment(400))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ic.Coalesce().Len() == 0 {
			b.Fatal("coalesce lost everything")
		}
	}
}

func BenchmarkSemanticMap(b *testing.B) {
	// ⟦·⟧: building the segmented abstract view.
	ic := employment(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ic.Abstract().Segments()) == 0 {
			b.Fatal("no segments")
		}
	}
}

func BenchmarkCoreOf(b *testing.B) {
	// Core computation over a redundant chase result (no egds).
	m := paperex.EmploymentMapping()
	m.EGDs = nil
	jc, _, err := chase.Concrete(employment(60), m, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if coreof.Of(jc).Len() == 0 {
			b.Fatal("empty core")
		}
	}
}

func BenchmarkTemporalChase(b *testing.B) {
	src := schema.MustNew(schema.MustRelation("PhDgrad", "name"))
	tgt := schema.MustNew(schema.MustRelation("PhDCan", "name", "adviser", "topic"))
	m := &temporal.Mapping{Source: src, Target: tgt, TGDs: []temporal.TGD{{
		Name: "was-candidate",
		Body: logic.Conjunction{logic.NewAtom("PhDgrad", logic.Var("n"))},
		Head: []temporal.HeadAtom{{
			Ref:  temporal.SometimePast,
			Atom: logic.NewAtom("PhDCan", logic.Var("n"), logic.Var("adv"), logic.Var("top")),
		}},
	}}}
	ic := instance.NewConcrete(src)
	for i := 0; i < 200; i++ {
		s := interval.Time(5 + i%40)
		ic.MustInsert(fact.NewC("PhDgrad", interval.MustNew(s, s+3), paperex.C(fmt.Sprintf("p%d", i))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := temporal.Chase(ic, m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForEgdPhase isolates the egd-round renormalization, the
// dominant cost of the taxi scenario's egd phase, over its tgd-phase
// target; the settled row renormalizes that target's frozen fixpoint, a
// pass that splits nothing and returns its input.
func BenchmarkForEgdPhase(b *testing.B) {
	m := workload.TaxiMapping()
	ic := workload.Taxi(workload.TaxiConfig{Seed: 7, Drivers: 150, Cabs: 60, Span: 100})
	tgdOnly := *m
	tgdOnly.EGDs = nil
	tgt, _, err := chase.Concrete(ic, &tgdOnly, nil)
	if err != nil {
		b.Fatal(err)
	}
	phis := m.EGDBodies()
	ctx := context.Background()
	b.Run("fragmenting", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out, err := normalize.ForEgdPhaseCtx(ctx, tgt.Clone(), phis, normalize.StrategySmart); err != nil || out.Len() == 0 {
				b.Fatalf("renormalization lost everything (%v)", err)
			}
		}
	})
	settled, err := normalize.ForEgdPhaseCtx(ctx, tgt.Clone(), phis, normalize.StrategySmart)
	if err != nil {
		b.Fatal(err)
	}
	settled.Freeze()
	b.Run("settled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out, err := normalize.ForEgdPhaseCtx(ctx, settled, phis, normalize.StrategySmart); err != nil || out != settled {
				b.Fatalf("a settled target was copied (%v)", err)
			}
		}
	})
}

func BenchmarkJSONRoundTrip(b *testing.B) {
	jc, _, err := chase.Concrete(employment(100), paperex.EmploymentMapping(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := jsonio.Encode(jc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := jsonio.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// tupleCorpus builds a deterministic mixed-kind tuple corpus (constants,
// annotated nulls, intervals) with roughly half duplicates, exercising the
// storage dedup path the way chase inserts do.
func tupleCorpus(n int) [][]value.Value {
	rng := rand.New(rand.NewSource(11))
	out := make([][]value.Value, 0, n)
	for i := 0; i < n; i++ {
		s := interval.Time(rng.Intn(50))
		iv := interval.MustNew(s, s+1+interval.Time(rng.Intn(20)))
		tup := []value.Value{
			value.NewConst(fmt.Sprintf("p%d", rng.Intn(n/4))),
			value.NewConst(fmt.Sprintf("c%d", rng.Intn(16))),
			value.NewAnnNull(uint64(rng.Intn(n/8)+1), iv),
			value.NewInterval(iv),
		}
		out = append(out, tup)
	}
	return out
}

// BenchmarkStorageInsert measures the tuple insert/dedup hot path
// (perf-intern): time and allocations per corpus insertion.
func BenchmarkStorageInsert(b *testing.B) {
	corpus := tupleCorpus(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := storage.NewStore()
		for _, tup := range corpus {
			st.Insert("R", tup)
		}
	}
}

// BenchmarkHomomorphismSearch measures raw homomorphism enumeration over
// a normalized instance (perf-intern): the index-nested-loop engine.
func BenchmarkHomomorphismSearch(b *testing.B) {
	body := paperex.Sigma2Body()
	norm := normalize.Smart(employment(200), []logic.Conjunction{body})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		logic.ForEach(norm.Store(), body, nil, func(logic.Match) bool { n++; return true })
		if n == 0 {
			b.Fatal("no homomorphisms")
		}
	}
}

// BenchmarkEgdMergeLoop measures the egd phase alone (perf-intern): the
// violating target is prebuilt once, so each iteration is normalize +
// match + union-find merge + rewrite.
func BenchmarkEgdMergeLoop(b *testing.B) {
	m := workload.EgdStressMapping(8)
	tgdOnly := *m
	tgdOnly.EGDs = nil
	tgt, _, err := chase.Concrete(workload.EgdStress(40, 8), &tgdOnly, nil)
	if err != nil {
		b.Fatal(err)
	}
	cm, err := chase.CompileMapping(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := chase.EgdPhase(tgt, cm, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiff(b *testing.B) {
	a := employment(200)
	c := employment(210)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instance.Diff(a, c)
	}
}

// employmentMappingText is the paper's employment mapping in TDX text
// form — what a client of the public API would ship.
const employmentMappingText = `
source schema {
    E(name, company)
    S(name, salary)
}
target schema {
    Emp(name, company, salary)
}
tgd sigma1: E(n, c) -> exists s . Emp(n, c, s)
tgd sigma2: E(n, c), S(n, s) -> Emp(n, c, s)
egd salary-key: Emp(n, c, s), Emp(n, c, s2) -> s = s2
query q(n, s) :- Emp(n, c, s)
`

// BenchmarkExchangeReuse measures the tentpole contract of the public
// API on employment-200: one tdx.Compile serving many Run calls must
// beat re-parsing and re-compiling the mapping for every run.
func BenchmarkExchangeReuse(b *testing.B) {
	ic := employment(200)
	ctx := context.Background()
	b.Run("compile-once", func(b *testing.B) {
		ex, err := Compile(employmentMappingText)
		if err != nil {
			b.Fatal(err)
		}
		src := NewInstance(ic)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.Run(ctx, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-run-compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex, err := Compile(employmentMappingText)
			if err != nil {
				b.Fatal(err)
			}
			src := NewInstance(ic)
			if _, err := ex.Run(ctx, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotLoad measures the persistence tentpole on
// employment workloads: loading a materialized solution from its
// columnar snapshot (mmap open + frozen-store adoption + table-order
// re-interning) against the cold path a snapshot-less client pays —
// decoding the solution's JSON document, re-interning every value
// through the hash-consing insert path, and freezing the result. Both
// sides end in the same state (a frozen, fully indexed store, the only
// form tdxd pins and shares); the snapshot load is the warm-start cost
// of tdxd and of tdx chase -load, and the target is ≥3x over the cold
// decode.
func BenchmarkSnapshotLoad(b *testing.B) {
	ctx := context.Background()
	ex, err := Compile(employmentMappingText)
	if err != nil {
		b.Fatal(err)
	}
	for _, persons := range []int{200, 800} {
		ic := employment(persons)
		sol, err := ex.Run(ctx, NewInstance(ic))
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "solution.snap")
		if err := sol.WriteSnapshotFile(path); err != nil {
			b.Fatal(err)
		}
		data, err := jsonio.Encode(sol.Concrete())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("snapshot/facts=%d", sol.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				loaded, err := ex.LoadSolution(path)
				if err != nil {
					b.Fatal(err)
				}
				if loaded.Len() != sol.Len() {
					b.Fatalf("loaded %d facts, want %d", loaded.Len(), sol.Len())
				}
			}
		})
		b.Run(fmt.Sprintf("cold-json/facts=%d", sol.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				jc, err := jsonio.Decode(data)
				if err != nil {
					b.Fatal(err)
				}
				if jc.Len() != sol.Len() {
					b.Fatalf("decoded %d facts, want %d", jc.Len(), sol.Len())
				}
				jc.Freeze()
			}
		})
	}
}

// BenchmarkRunDelta measures the incremental exchange against its
// baseline: an employment base of a few hundred facts chased once, then
// a k-fact new-hire delta applied either via RunDelta (the semi-naive
// fast path — the benchmark fails if it silently falls back) or by
// re-running the whole exchange over the combined source.
func BenchmarkRunDelta(b *testing.B) {
	ctx := context.Background()
	m := paperex.EmploymentMapping()
	ex, err := FromMapping(m)
	if err != nil {
		b.Fatal(err)
	}
	base := employment(200)
	if base.Len() < 200 {
		b.Fatalf("base instance too small: %d facts", base.Len())
	}
	baseSol, err := ex.Run(ctx, NewInstance(base))
	if err != nil {
		b.Fatal(err)
	}
	newHire := func(ic *instance.Concrete, i int) {
		name := fmt.Sprintf("newhire%d", i)
		ic.MustInsert(fact.NewC("E", interval.MustNew(40, 60), paperex.C(name), paperex.C("AcmeCorp")))
		ic.MustInsert(fact.NewC("S", interval.MustNew(40, 60), paperex.C(name), paperex.C("17k")))
	}
	for _, k := range []int{1, 8, 64} {
		deltaIC := instance.NewConcreteWith(m.Source, base.Interner())
		combined := instance.NewConcreteWith(m.Source, base.Interner())
		base.EachFact(func(f fact.CFact) bool { combined.MustInsert(f); return true })
		for i := 0; i < k; i++ {
			newHire(deltaIC, i)
			newHire(combined, i)
		}
		delta, full := NewInstance(deltaIC), NewInstance(combined)
		b.Run(fmt.Sprintf("incremental/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sol, _, err := ex.RunDelta(ctx, baseSol, delta)
				if err != nil {
					b.Fatal(err)
				}
				if sol.Stats().FallbackFullChase {
					b.Fatal("delta run fell back to a full re-chase")
				}
			}
		})
		b.Run(fmt.Sprintf("full/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Run(ctx, full); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// copyBulkMappingText copies one relation: no joins, no existentials, no
// egds — the mapping of the repository benchmark's copy-bulk workload.
const copyBulkMappingText = `
source schema {
    E(name, company)
}
target schema {
    Works(name, company)
}
tgd copy: E(n, c) -> Works(n, c)
`

// copyBulkSource decodes a copy-bulk-shaped JSON source — one salt fact
// and 5,000 facts with unique names, 500 companies and short random
// intervals — and freezes it, as tdxd's source cache does. The exchange
// is compiled as tdxd and the repository benchmark compile theirs, with
// WithRunInterner.
func copyBulkSource(tb testing.TB) (*Exchange, *Instance) {
	tb.Helper()
	ex := MustCompile(copyBulkMappingText, WithRunInterner())
	r := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	b.WriteString(`{"facts":[{"rel":"E","args":["salt0","saltco"],"interval":"[0, 1)"}`)
	for i := 0; i < 5000; i++ {
		s := r.Int63n(1000)
		fmt.Fprintf(&b, `,{"rel":"E","args":["w%d","c%d"],"interval":"[%d, %d)"}`, i, r.Intn(500), s, s+1+r.Int63n(100))
	}
	b.WriteString("]}")
	src, err := ex.DecodeSourceJSON(&b)
	if err != nil {
		tb.Fatal(err)
	}
	return ex, src.Freeze()
}

// BenchmarkRunCopyBulk times one Run per op over a decoded, frozen
// 5,001-fact copy source: no fact splits, so the time goes to firing
// one copy per fact into the run's overlay on the source's interner.
func BenchmarkRunCopyBulk(b *testing.B) {
	ex, src := copyBulkSource(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunCopyBulkAllocBytes guards the bytes and objects one Run
// allocates over the copy-bulk source: a run that re-interns every
// firing vector into an interner of its own allocates about 6.9 MB and
// fails it; one that writes the source's IDs as they are into an overlay
// on the source's interner allocates about 3.3 MB. A solution store that
// decodes every row when it freezes allocates one object per fact, about
// 5,400 per Run, and fails the object bound; one that keeps only its ID
// columns allocates a few hundred.
func TestRunCopyBulkAllocBytes(t *testing.T) {
	ex, src := copyBulkSource(t)
	ctx := context.Background()
	if _, err := ex.Run(ctx, src); err != nil { // warm the source's lazy state
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ex.Run(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objects := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.2f MB and %.0f objects allocated per Run", perRun/1e6, objects)
	if perRun > 4.5e6 {
		t.Fatalf("a copy-bulk Run allocated %.2f MB, want under 4.5 MB", perRun/1e6)
	}
	if objects >= 1000 {
		t.Fatalf("a copy-bulk Run allocated %.0f objects, want under 1,000", objects)
	}
}
