// Command tdxbench regenerates every figure of the paper and runs the
// measured experiments. Each experiment is addressed by the id listed by
// -list (the experiments table below):
//
//	tdxbench -exp fig5        # one experiment
//	tdxbench -exp all         # everything (figures + checks + sweeps)
//	tdxbench -list            # show available experiments
//
// Figures print the same rows as the paper; theorem checks run
// randomized validation and report pass counts; perf-* sweeps print
// timing/size tables. -cpuprofile and -memprofile write pprof profiles
// covering the selected experiments, for digging into the perf-* sweeps
// with go tool pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
)

// experiment is one addressable unit of the harness.
type experiment struct {
	id    string
	title string
	run   func(w io.Writer) error
}

var experiments = []experiment{
	{"fig1", "Figure 1: abstract view of the employment instance", runFig1},
	{"fig2", "Figure 2 / Example 2: homomorphism asymmetry from shared nulls", runFig2},
	{"fig3", "Figure 3 / Example 5: abstract chase result per snapshot", runFig3},
	{"fig4", "Figure 4: concrete source instance Ic", runFig4},
	{"fig5", "Figure 5 / Example 8: Algorithm 1 normalization w.r.t. lhs(σ2+)", runFig5},
	{"fig6", "Figure 6: naïve normalization (over-fragmentation)", runFig6},
	{"fig8", "Figures 7-8 / Example 14: Algorithm 1 on the R/P/S instance", runFig8},
	{"fig9", "Figure 9 / Example 17: c-chase result with interval-annotated nulls", runFig9},
	{"fig10", "Figure 10 / Corollary 20: commutativity of c-chase and abstract chase", runFig10},
	{"thm11", "Theorem 11: normalized ⟺ empty intersection property", runThm11},
	{"thm13", "Theorem 13: worst-case O(n²) fragmentation sweep", runThm13},
	{"thm21", "Theorem 21 / Corollary 22: naïve evaluation agreement", runThm21},
	{"perf-norm", "normalization: smart (Algorithm 1) vs naïve — time and output size", runPerfNorm},
	{"perf-chase", "chase cost vs timeline span: c-chase / segment chase / pointwise chase", runPerfChase},
	{"perf-query", "naïve query evaluation scaling", runPerfQuery},
	{"perf-delta", "incremental exchange: RunDelta over a frozen base vs full re-chase", runPerfDelta},
	{"perf-snapshot", "persistence: mmap snapshot load vs cold JSON decode + freeze", runPerfSnapshot},
	{"perf-encode", "serialization: streamed columnar JSON encode vs materialize + marshal", runPerfEncode},
	{"abl-egd", "ablation: batch (union-find) vs stepwise egd application", runAblEgd},
	{"abl-norm-strategy", "ablation: chase end-to-end under smart vs naive normalization", runAblNormStrategy},
	{"ext-temporal", "§7 extension: modal-operator mappings (PhD example, ◆)", runExtTemporal},
	{"ext-core", "§7 extension: snapshot-wise core of a materialized solution", runExtCore},
}

func main() {
	exp := flag.String("exp", "", "experiment id (see -list), or 'all'")
	list := flag.Bool("list", false, "list experiments")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Parse()
	if *list || *exp == "" {
		ids := make([]string, 0, len(experiments))
		for _, e := range experiments {
			ids = append(ids, fmt.Sprintf("  %-18s %s", e.id, e.title))
		}
		sort.Strings(ids)
		fmt.Println("experiments:")
		for _, l := range ids {
			fmt.Println(l)
		}
		fmt.Println("  all                run everything")
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	// Profiling brackets exactly the experiment work; the profile files
	// are finalized before any error exit so a failing sweep still leaves
	// usable profiles behind.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tdxbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tdxbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	runErr := runSelected(*exp)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tdxbench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // settle the live set before snapshotting the heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tdxbench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tdxbench: -memprofile: %v\n", err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "tdxbench: %v\n", runErr)
		os.Exit(1)
	}
}

// runSelected runs one experiment by id, or all of them.
func runSelected(exp string) error {
	if exp == "all" {
		for _, e := range experiments {
			fmt.Printf("==== %s — %s ====\n", e.id, e.title)
			if err := e.run(os.Stdout); err != nil {
				return fmt.Errorf("%s: %w", e.id, err)
			}
			fmt.Println()
		}
		return nil
	}
	for _, e := range experiments {
		if e.id == exp {
			fmt.Printf("==== %s — %s ====\n", e.id, e.title)
			return e.run(os.Stdout)
		}
	}
	return fmt.Errorf("unknown experiment %q (use -list)", exp)
}
