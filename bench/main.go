// Command bench is the repository's end-to-end benchmark. It builds tdxd
// from the tree, boots a fresh daemon with default flags on loopback for
// each workload, drives it from this one process with a closed loop of
// two clients on two keep-alive connections for a measured window, and
// checks every response. With -trace 1 it then replays the workload's
// first requests one at a time, over HTTP and as direct calls into the
// public tdx API, timing each layer. See README.md for the workloads
// and metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload emp-run -seed 1 -seconds 25 -trace 0
//	bash bench/run.sh -seed 1 -out bench-out.json
//	bash bench/run.sh -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
//
// Each metric prints as one line "<workload> <metric> <value> <unit>";
// the last line is a JSON summary. The exit status is 1 when any request
// failed or any response disagreed with the in-process result, 2 when
// the benchmark could not run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// report is the -out file: every workload's results with the run's
// metadata.
type report struct {
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Loop       string             `json:"loop"`
	Clients    int                `json:"clients"`
	Nproc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Commit     string             `json:"commit"`
	Workloads  map[string]*result `json:"workloads"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 25, "measured window per workload, in seconds")
	trace := fs.Int("trace", 1, "1: also replay requests with per-layer spans and report per-layer metrics; 0: end-to-end metrics only")
	out := fs.String("out", "", "write the full results with run metadata as JSON to this file")
	spansOut := fs.String("spans", "", "write the replay's spans as JSON lines to this file")
	compare := fs.Bool("compare", false, "compare result files instead of running; each argument is one side, a comma-separated list of -out files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout)
	}
	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	if *trace != 0 && *trace != 1 {
		return fail(errors.New("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		return fail(errors.New("-seconds must be positive"))
	}
	workloads := make([]*workload, len(names))
	for i, name := range names {
		w, err := newWorkload(name, *seed)
		if err != nil {
			return fail(err)
		}
		workloads[i] = w
	}

	cfg := config{
		tdxd:      filepath.Join(".bench_build", "bin", "tdxd"),
		window:    time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		setups:    3,
		replayOps: 64,
	}
	if err := buildTdxd(".", cfg.tdxd); err != nil {
		return fail(err)
	}
	rep := report{
		Seed: *seed, Seconds: *seconds, Trace: cfg.trace, Loop: "closed", Clients: clients,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: readCommit("."), Workloads: map[string]*result{},
	}
	sum := summary{Metrics: map[string]value{}}
	var spans []span
	for i, name := range names {
		res, err := runWorkload(cfg, workloads[i])
		if err != nil {
			return fail(err)
		}
		rep.Workloads[name] = res
		spans = append(spans, res.spans...)
		printResult(stdout, name, res)
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		reported := res.E2E
		if cfg.trace {
			reported = res.Layers
		}
		for k, v := range reported {
			if len(names) > 1 {
				k = name + "." + k
			}
			sum.Metrics[k] = v
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return fail(err)
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, spans); err != nil {
			return fail(err)
		}
	}
	sum.Correct = sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

func printResult(w io.Writer, name string, res *result) {
	fmt.Fprintf(w, "# %s: %d ok requests in the window, %d attempted, %d failed, set-ups %v s\n",
		name, res.Samples, res.Attempted, res.Failed, res.SetupRuns)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "# %s error: %s\n", name, e)
	}
	for _, group := range []struct {
		defs []metricDef
		vals map[string]value
	}{{e2eMetrics, res.E2E}, {layerMetrics, res.Layers}} {
		for _, d := range group.defs {
			if v, ok := group.vals[d.name]; ok {
				fmt.Fprintf(w, "%s %s %s %s\n", name, d.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readCommit returns the checked-out commit, or "unknown" outside a git
// work tree.
func readCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
