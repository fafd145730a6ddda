package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	tdx "repro"
	"repro/internal/chase"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/normalize"
	"repro/internal/paperex"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/verify"
	"repro/internal/workload"
)

// randomEmploymentSource mirrors the randomized source used by the
// property tests: small instances with enough collisions to exercise
// both chase success and failure.
func randomEmploymentSource(r *rand.Rand) *instance.Concrete {
	m := paperex.EmploymentMapping()
	ic := instance.NewConcrete(m.Source)
	names := []string{"a", "b"}
	comps := []string{"X", "Y"}
	sals := []string{"1k", "2k"}
	for i := 0; i < 1+r.Intn(5); i++ {
		s := interval.Time(r.Intn(8))
		ic.MustInsert(fact.NewC("E", interval.MustNew(s, s+1+interval.Time(r.Intn(6))),
			paperex.C(names[r.Intn(2)]), paperex.C(comps[r.Intn(2)])))
	}
	for i := 0; i < r.Intn(3); i++ {
		s := interval.Time(r.Intn(8))
		ic.MustInsert(fact.NewC("S", interval.MustNew(s, s+1+interval.Time(r.Intn(6))),
			paperex.C(names[r.Intn(2)]), paperex.C(sals[r.Intn(2)])))
	}
	return ic
}

func runThm11(w io.Writer) error {
	// Randomized check in both directions, plus the paper's instance.
	phis := []logic.Conjunction{paperex.Sigma2Body()}
	if normalize.HasEmptyIntersectionProperty(paperex.Figure4(), phis) {
		return errors.New("Figure 4 wrongly reported normalized")
	}
	r := rand.New(rand.NewSource(7))
	trials, eipAfterSmart, eipAfterNaive, identityWhenEIP := 500, 0, 0, 0
	for i := 0; i < trials; i++ {
		ic := randomEmploymentSource(r)
		if normalize.HasEmptyIntersectionProperty(normalize.Smart(ic, phis), phis) {
			eipAfterSmart++
		}
		if normalize.HasEmptyIntersectionProperty(normalize.Naive(ic), phis) {
			eipAfterNaive++
		}
		if normalize.HasEmptyIntersectionProperty(ic, phis) && !normalize.Smart(ic, phis).Equal(ic) {
			continue // EIP held but Smart changed it: would be a violation
		}
		identityWhenEIP++
	}
	fmt.Fprintf(w, "random trials:                         %d\n", trials)
	fmt.Fprintf(w, "EIP after Algorithm 1 (Thm 15):        %d/%d\n", eipAfterSmart, trials)
	fmt.Fprintf(w, "EIP after naïve normalization:         %d/%d\n", eipAfterNaive, trials)
	fmt.Fprintf(w, "Smart is identity on normalized input: %d/%d\n", identityWhenEIP, trials)
	return nil
}

func runThm13(w io.Writer) error {
	fmt.Fprintln(w, "output facts after Smart normalization vs the n·(2n−1) bound")
	headers := []string{"n", "staircase", "nested", "disjoint(k=8)", "bound"}
	var rows [][]string
	for _, n := range []int{8, 16, 32, 64, 128} {
		stair := normalize.Smart(workload.Staircase(n), workload.StaircasePhi()).Len()
		nest := normalize.Smart(workload.Nested(n), workload.StaircasePhi()).Len()
		dj := normalize.Smart(workload.DisjointRuns(n, 8), workload.StaircasePhi()).Len()
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(stair), fmt.Sprint(nest), fmt.Sprint(dj),
			fmt.Sprint(normalize.FragmentBound(n)),
		})
	}
	fmt.Fprint(w, render.Table(headers, rows))
	fmt.Fprintln(w, "shape: staircase/nested grow quadratically; disjoint clusters stay near-linear")
	return nil
}

func runThm21(w io.Writer) error {
	ctx := context.Background()
	r := rand.New(rand.NewSource(11))
	ex, err := employmentExchange()
	if err != nil {
		return err
	}
	u, err := query.NewUCQ("q", query.CQ{Name: "q", Head: []string{"n", "s"},
		Body: logic.Conjunction{logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s"))}})
	if err != nil {
		return err
	}
	trials, agree, failures := 300, 0, 0
	for i := 0; i < trials; i++ {
		ic := randomEmploymentSource(r)
		sol, err := ex.Run(ctx, tdx.NewInstance(ic))
		if err != nil {
			failures++
			continue
		}
		jc := sol.Concrete()
		lhs, err := query.NaiveEval(ctx, u, jc)
		if err != nil {
			return err
		}
		rhs := query.CertainAbstract(u, jc.Abstract())
		if lhs.Abstract().EqualTo(rhs.Abstract()) {
			agree++
		}
	}
	fmt.Fprintf(w, "random trials:                 %d (%d chase failures skipped)\n", trials, failures)
	fmt.Fprintf(w, "⟦q+(Jc)↓⟧ = q(⟦Jc⟧)↓ (Thm 21): %d/%d\n", agree, trials-failures)
	return nil
}

// timeIt runs fn and returns the wall-clock duration.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func runPerfNorm(w io.Writer) error {
	fmt.Fprintln(w, "employment workload, normalization w.r.t. the mapping's tgd bodies")
	m := paperex.EmploymentMapping()
	headers := []string{"facts", "smart ms", "smart out", "naive ms", "naive out"}
	var rows [][]string
	for _, persons := range []int{50, 100, 200, 400, 800} {
		ic := workload.Employment(workload.EmploymentConfig{
			Seed: 1, Persons: persons, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 200,
		})
		var smartOut, naiveOut *instance.Concrete
		smartT := timeIt(func() { smartOut = normalize.Smart(ic, m.TGDBodies()) })
		naiveT := timeIt(func() { naiveOut = normalize.Naive(ic) })
		rows = append(rows, []string{
			fmt.Sprint(ic.Len()),
			fmt.Sprintf("%.2f", float64(smartT.Microseconds())/1000),
			fmt.Sprint(smartOut.Len()),
			fmt.Sprintf("%.2f", float64(naiveT.Microseconds())/1000),
			fmt.Sprint(naiveOut.Len()),
		})
	}
	fmt.Fprint(w, render.Table(headers, rows))
	fmt.Fprintln(w, "shape: Algorithm 1 keeps output near the input size; naïve's O(n log n)")
	fmt.Fprintln(w, "sort is cheap but materializing its much larger output dominates here —")
	fmt.Fprintln(w, "the size/time trade-off of §4.2")
	return nil
}

func runPerfChase(w io.Writer) error {
	ctx := context.Background()
	fmt.Fprintln(w, "same instance dilated over longer timelines (fact count constant)")
	m := paperex.EmploymentMapping()
	ex, err := employmentExchange()
	if err != nil {
		return err
	}
	base := workload.Employment(workload.EmploymentConfig{
		Seed: 3, Persons: 12, JobsPerPerson: 2, SalaryCoverage: 0.8, Span: 20,
	})
	headers := []string{"dilation", "span", "c-chase ms", "segment ms", "pointwise ms"}
	var rows [][]string
	for _, k := range []interval.Time{1, 4, 16, 64} {
		ic := chase.Dilate(base, k)
		horizon := interval.Time(0)
		for _, f := range ic.Facts() {
			if f.T.End != interval.Infinity && f.T.End > horizon {
				horizon = f.T.End
			}
		}
		src := tdx.NewInstance(ic)
		var cT, sT, pT time.Duration
		cT = timeIt(func() {
			if _, err := ex.Run(ctx, src); err != nil {
				panic(err)
			}
		})
		sT = timeIt(func() {
			if _, _, err := ex.RunAbstract(ctx, src); err != nil {
				panic(err)
			}
		})
		pT = timeIt(func() {
			if _, _, err := chase.Pointwise(ic, m, horizon, nil); err != nil {
				panic(err)
			}
		})
		rows = append(rows, []string{
			fmt.Sprint(k), fmt.Sprint(horizon),
			fmt.Sprintf("%.2f", float64(cT.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(sT.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(pT.Microseconds())/1000),
		})
	}
	fmt.Fprint(w, render.Table(headers, rows))
	fmt.Fprintln(w, "shape: pointwise (literal §3 semantics) grows linearly with the span;")
	fmt.Fprintln(w, "c-chase and the segment-wise abstract chase are span-independent — the")
	fmt.Fprintln(w, "reason the concrete view (and this paper) exists")
	return nil
}

func runPerfQuery(w io.Writer) error {
	ctx := context.Background()
	ex, err := employmentExchange()
	if err != nil {
		return err
	}
	u, err := query.NewUCQ("q", query.CQ{Name: "q", Head: []string{"n", "s"},
		Body: logic.Conjunction{logic.NewAtom("Emp", logic.Var("n"), logic.Var("c"), logic.Var("s"))}})
	if err != nil {
		return err
	}
	headers := []string{"solution facts", "eval ms", "answers"}
	var rows [][]string
	for _, persons := range []int{50, 100, 200, 400} {
		ic := workload.Employment(workload.EmploymentConfig{
			Seed: 1, Persons: persons, JobsPerPerson: 3, SalaryCoverage: 0.8, Span: 150,
		})
		sol, err := ex.Run(ctx, tdx.NewInstance(ic))
		if err != nil {
			return err
		}
		var ans *instance.Concrete
		d := timeIt(func() { ans, err = query.NaiveEval(ctx, u, sol.Concrete()) })
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprint(sol.Len()),
			fmt.Sprintf("%.2f", float64(d.Microseconds())/1000),
			fmt.Sprint(ans.Len()),
		})
	}
	fmt.Fprint(w, render.Table(headers, rows))
	return nil
}

func runPerfDelta(w io.Writer) error {
	ctx := context.Background()
	fmt.Fprintln(w, "incremental exchange: employment base chased once, then k-fact")
	fmt.Fprintln(w, "new-hire deltas applied via RunDelta vs re-chasing base+delta")
	m := paperex.EmploymentMapping()
	ex, err := employmentExchange()
	if err != nil {
		return err
	}
	base := workload.Employment(workload.EmploymentConfig{
		Seed: 1, Persons: 45, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 200,
	})
	if base.Len() < 200 {
		return fmt.Errorf("base instance too small: %d facts", base.Len())
	}
	baseSol, err := ex.Run(ctx, tdx.NewInstance(base))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base: %d source facts → %d solution facts (chased once)\n", base.Len(), baseSol.Len())
	// best-of-3 wall clock: the sweeps here are milliseconds, where a
	// single shot is scheduler noise.
	best := func(fn func()) time.Duration {
		d := timeIt(fn)
		for i := 0; i < 2; i++ {
			if r := timeIt(fn); r < d {
				d = r
			}
		}
		return d
	}
	headers := []string{"k facts", "delta ms", "full ms", "speedup", "delta fires", "diff +"}
	var rows [][]string
	for _, k := range []int{1, 8, 64} {
		// New hires with fresh names and aligned E/S intervals: the shape
		// of an append-only feed, and the delta chase's fast path.
		deltaIC := instance.NewConcreteWith(m.Source, base.Interner())
		combined := instance.NewConcreteWith(m.Source, base.Interner())
		base.EachFact(func(f fact.CFact) bool { combined.MustInsert(f); return true })
		for added, i := 0, 0; added < k; i++ {
			name := fmt.Sprintf("newhire%d", i)
			e := fact.NewC("E", interval.MustNew(40, 60), paperex.C(name), paperex.C("AcmeCorp"))
			deltaIC.MustInsert(e)
			combined.MustInsert(e)
			if added++; added == k {
				break
			}
			s := fact.NewC("S", interval.MustNew(40, 60), paperex.C(name), paperex.C("17k"))
			deltaIC.MustInsert(s)
			combined.MustInsert(s)
			added++
		}
		delta, full := tdx.NewInstance(deltaIC), tdx.NewInstance(combined)
		var sol *tdx.Solution
		var diff *tdx.Diff
		dT := best(func() {
			var err error
			if sol, diff, err = ex.RunDelta(ctx, baseSol, delta); err != nil {
				panic(err)
			}
		})
		if sol.Stats().FallbackFullChase {
			return fmt.Errorf("k=%d: delta run fell back to a full re-chase", k)
		}
		fT := best(func() {
			if _, err := ex.Run(ctx, full); err != nil {
				panic(err)
			}
		})
		rows = append(rows, []string{
			fmt.Sprint(k),
			fmt.Sprintf("%.2f", float64(dT.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(fT.Microseconds())/1000),
			fmt.Sprintf("%.1fx", float64(fT)/float64(dT)),
			fmt.Sprint(sol.Stats().DeltaFires),
			fmt.Sprint(diff.Added.Len()),
		})
	}
	fmt.Fprint(w, render.Table(headers, rows))
	fmt.Fprintln(w, "shape: RunDelta fires only what the new facts reach, so its cost")
	fmt.Fprintln(w, "tracks k while the full re-chase pays for the whole base every time")
	return nil
}

func runAblEgd(w io.Writer) error {
	fmt.Fprintln(w, "egd-merge-dominated workload: k nulls per group collapse to one")
	headers := []string{"groups", "k", "batch ms", "stepwise ms", "merges"}
	var rows [][]string
	ctx := context.Background()
	for _, cfg := range []struct{ groups, k int }{{20, 4}, {40, 4}, {40, 8}, {80, 8}} {
		ex, err := tdx.FromMapping(workload.EgdStressMapping(cfg.k))
		if err != nil {
			return err
		}
		ic := tdx.NewInstance(workload.EgdStress(cfg.groups, cfg.k))
		var merges int
		bT := timeIt(func() {
			sol, err := ex.Run(ctx, ic, tdx.WithEgdStrategy(tdx.EgdBatch))
			if err != nil {
				panic(err)
			}
			merges = sol.Stats().EgdMerges
		})
		sT := timeIt(func() {
			if _, err := ex.Run(ctx, ic, tdx.WithEgdStrategy(tdx.EgdStepwise)); err != nil {
				panic(err)
			}
		})
		rows = append(rows, []string{
			fmt.Sprint(cfg.groups), fmt.Sprint(cfg.k),
			fmt.Sprintf("%.2f", float64(bT.Microseconds())/1000),
			fmt.Sprintf("%.2f", float64(sT.Microseconds())/1000),
			fmt.Sprint(merges),
		})
	}
	fmt.Fprint(w, render.Table(headers, rows))
	fmt.Fprintln(w, "shape: batch merges every violated equality per rewrite round; stepwise")
	fmt.Fprintln(w, "re-searches after each single merge and falls behind as merges grow")
	return nil
}

func runAblNormStrategy(w io.Writer) error {
	ctx := context.Background()
	fmt.Fprintln(w, "end-to-end c-chase under both normalization strategies")
	ex, err := employmentExchange()
	if err != nil {
		return err
	}
	headers := []string{"source facts", "smart ms", "smart |Jc|", "naive ms", "naive |Jc|", "equivalent"}
	var rows [][]string
	for _, persons := range []int{25, 50, 100, 200} {
		ic := workload.Employment(workload.EmploymentConfig{
			Seed: 5, Persons: persons, JobsPerPerson: 3, SalaryCoverage: 0.7, Span: 120,
		})
		src := tdx.NewInstance(ic)
		var smartJc, naiveJc *instance.Concrete
		sT := timeIt(func() {
			sol, err := ex.Run(ctx, src, tdx.WithNorm(tdx.NormSmart))
			if err != nil {
				panic(err)
			}
			smartJc = sol.Concrete()
		})
		nT := timeIt(func() {
			sol, err := ex.Run(ctx, src, tdx.WithNorm(tdx.NormNaive))
			if err != nil {
				panic(err)
			}
			naiveJc = sol.Concrete()
		})
		// Equivalence is checked on small instances only (the hom search
		// is exponential in the worst case).
		equiv := "-"
		if persons <= 25 {
			equiv = fmt.Sprint(verify.HomEquivalent(smartJc.Abstract(), naiveJc.Abstract()))
		}
		rows = append(rows, []string{
			fmt.Sprint(ic.Len()),
			fmt.Sprintf("%.2f", float64(sT.Microseconds())/1000), fmt.Sprint(smartJc.Len()),
			fmt.Sprintf("%.2f", float64(nT.Microseconds())/1000), fmt.Sprint(naiveJc.Len()),
			equiv,
		})
	}
	fmt.Fprint(w, render.Table(headers, rows))
	return nil
}
