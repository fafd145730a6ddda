// Command tdx is the temporal data exchange command-line tool. It loads a
// schema mapping and a concrete source instance in the TDX text format
// and runs the paper's pipeline: normalization (§4.2), the concrete chase
// (§4.3), and certain-answer query evaluation (§5). It is a thin shell
// over the public tdx engine API (package tdx at the module root): the
// mapping is compiled once into a tdx.Exchange and every subcommand runs
// against it.
//
// Usage:
//
//	tdx chase     -m mapping.tdx -d source.facts [-norm smart|naive] [-egd batch|stepwise] [-coalesce] [-table] [-stats] [-trace] [-json] [-timeout 30s] [-save solution.snap]
//	tdx chase     -m mapping.tdx -load solution.snap [-table] [-stats] [-json]
//	tdx normalize -m mapping.tdx -d source.facts [-norm smart|naive] [-table]
//	tdx query     -m mapping.tdx -d source.facts [-q 'query q(n) :- Emp(n, c, s)' | -name q] [-table]
//	tdx snapshot  -m mapping.tdx -d source.facts -at 2013 [-target]
//	tdx core      -m mapping.tdx -d source.facts [-table]
//	tdx diff      -d new.facts -against old.facts [-m mapping.tdx] [-table]
//	tdx validate  -m mapping.tdx [-d source.facts]
//
// chase -save writes the solution as an mmap-able columnar snapshot
// (internal/snapshot, spec in docs/SNAPSHOT.md); chase -load replays one
// instead of chasing — the snapshot is checksummed and validated against
// the mapping's target schema, and re-saving a loaded solution is
// byte-identical. Mappings whose tgd heads carry modal markers (past /
// future / always past / always future — the §7 extension) are chased
// with the temporal chase automatically. Long chases are cancellable: -timeout bounds every
// run, and Ctrl-C is honored mid-chase. Fact output is in the TDX fact
// format and can be fed back into tdx.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	tdx "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if os.Args[1] == "help" || os.Args[1] == "-h" || os.Args[1] == "--help" {
		usage()
		return
	}
	// Ctrl-C cancels in-flight chases instead of killing the process
	// abruptly: the engine unwinds promptly via context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1], os.Args[2:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tdx:", err)
		os.Exit(1)
	}
}

// run dispatches one subcommand, writing its report to w. Split from
// main for testability.
func run(ctx context.Context, cmd string, args []string, w io.Writer) error {
	switch cmd {
	case "chase":
		return cmdChase(ctx, args, w)
	case "normalize":
		return cmdNormalize(ctx, args, w)
	case "query":
		return cmdQuery(ctx, args, w)
	case "snapshot":
		return cmdSnapshot(ctx, args, w)
	case "core":
		return cmdCore(ctx, args, w)
	case "diff":
		return cmdDiff(ctx, args, w)
	case "validate":
		return cmdValidate(ctx, args, w)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `tdx — temporal data exchange (Golshanara & Chomicki)

commands:
  chase      materialize a concrete universal solution (c-chase)
  normalize  normalize the source instance w.r.t. the mapping
  query      compute certain answers for a query
  snapshot   print the abstract snapshot at a time point
  core       chase, then shrink the solution to its snapshot-wise core
  diff       semantic temporal difference between two fact files
  validate   check a mapping (and optionally a fact file)

run 'tdx <command> -h' for flags
`)
}

// commonFlags bundles the flags shared by most subcommands.
type commonFlags struct {
	mapping string
	data    string
	norm    string
	egd     string
	table   bool
	timeout time.Duration
}

func (c *commonFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.mapping, "m", "", "mapping file (.tdx)")
	fs.StringVar(&c.data, "d", "", "source facts file")
	fs.StringVar(&c.norm, "norm", "smart", "normalization strategy: smart (Algorithm 1) or naive")
	fs.StringVar(&c.egd, "egd", "batch", "egd application strategy: batch or stepwise")
	fs.BoolVar(&c.table, "table", false, "render output as per-relation tables instead of fact lines")
	fs.DurationVar(&c.timeout, "timeout", 0, "bound the run (e.g. 30s); 0 means no limit")
}

// options translates the flags into engine options.
func (c *commonFlags) options() ([]tdx.Option, error) {
	norm, err := tdx.ParseNorm(c.norm)
	if err != nil {
		return nil, err
	}
	egd, err := tdx.ParseEgdStrategy(c.egd)
	if err != nil {
		return nil, err
	}
	return []tdx.Option{tdx.WithNorm(norm), tdx.WithEgdStrategy(egd)}, nil
}

// context bounds ctx by the -timeout flag.
func (c *commonFlags) context(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return context.WithCancel(ctx)
}

// finishErr rewrites a run's context errors into actionable CLI
// messages: a deadline produced by -timeout names the flag and the
// budget (main prints the message and exits non-zero), and Ctrl-C reads
// as an interrupt rather than a bare "context canceled". The original
// error stays wrapped, so errors.Is checks keep working.
func (c *commonFlags) finishErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded) && c.timeout > 0:
		return fmt.Errorf("run exceeded the -timeout budget of %v: %w", c.timeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("run interrupted: %w", err)
	}
	return err
}

// compile compiles the mapping file into an exchange.
func (c *commonFlags) compile(opts ...tdx.Option) (*tdx.Exchange, error) {
	if c.mapping == "" {
		return nil, fmt.Errorf("-m mapping file is required")
	}
	text, err := os.ReadFile(c.mapping)
	if err != nil {
		return nil, err
	}
	return tdx.Compile(string(text), opts...)
}

// source parses the facts file against the exchange's source schema.
func (c *commonFlags) source(ex *tdx.Exchange) (*tdx.Instance, error) {
	if c.data == "" {
		return nil, fmt.Errorf("-d facts file is required")
	}
	text, err := os.ReadFile(c.data)
	if err != nil {
		return nil, err
	}
	return ex.ParseSource(string(text))
}

// load compiles the mapping and parses the facts in one step.
func (c *commonFlags) load(opts ...tdx.Option) (*tdx.Exchange, *tdx.Instance, error) {
	ex, err := c.compile(opts...)
	if err != nil {
		return nil, nil, err
	}
	src, err := c.source(ex)
	if err != nil {
		return nil, nil, err
	}
	return ex, src, nil
}

// printInstance writes the instance as fact lines or tables.
func printInstance(w io.Writer, c *tdx.Instance, asTable bool) {
	if c.Len() == 0 {
		fmt.Fprintln(w, "(empty)")
		return
	}
	if asTable {
		fmt.Fprint(w, c.Table())
		return
	}
	fmt.Fprint(w, c.Facts())
}

func cmdChase(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("chase", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	coalesce := fs.Bool("coalesce", false, "coalesce the solution")
	stats := fs.Bool("stats", false, "print chase statistics to stderr")
	trace := fs.Bool("trace", false, "print every chase step to stderr")
	asJSON := fs.Bool("json", false, "emit the solution as JSON instead of fact lines")
	saveFile := fs.String("save", "", "write the solution as a columnar snapshot to this file after the chase")
	loadFile := fs.String("load", "", "load a previously saved solution snapshot instead of chasing (-d is not read)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := cf.options()
	if err != nil {
		return err
	}
	opts = append(opts, tdx.WithCoalesce(*coalesce))
	if *trace {
		opts = append(opts, tdx.WithTrace(func(e tdx.Event) { fmt.Fprintln(os.Stderr, "  ", e) }))
	}
	var sol *tdx.Solution
	if *loadFile != "" {
		// Replay a saved solution: no source, no chase — the snapshot is
		// validated against the mapping's target schema on load.
		ex, err := cf.compile(opts...)
		if err != nil {
			return err
		}
		if sol, err = ex.LoadSolution(*loadFile); err != nil {
			return err
		}
	} else {
		ex, src, err := cf.load(opts...)
		if err != nil {
			return err
		}
		ctx, cancel := cf.context(ctx)
		defer cancel()
		if sol, err = ex.Run(ctx, src); err != nil {
			return cf.finishErr(err)
		}
	}
	if *saveFile != "" {
		if err := sol.WriteSnapshotFile(*saveFile); err != nil {
			return err
		}
	}
	if *asJSON {
		// Stream the document straight off the frozen solution — same
		// bytes as sol.JSON(), without staging a solution-sized buffer.
		if err := sol.WriteJSON(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	} else {
		printInstance(w, &sol.Instance, cf.table)
	}
	if *stats {
		if *asJSON {
			// Share one stats encoding with tdxd run responses: the
			// lowerCamel JSON form of chase.Stats.
			data, err := json.Marshal(sol.Stats())
			if err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, string(data))
		} else {
			fmt.Fprintf(os.Stderr, "%+v\n", sol.Stats())
		}
	}
	return nil
}

func cmdCore(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("core", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := cf.options()
	if err != nil {
		return err
	}
	ex, src, err := cf.load(opts...)
	if err != nil {
		return err
	}
	ctx, cancel := cf.context(ctx)
	defer cancel()
	sol, err := ex.Run(ctx, src)
	if err != nil {
		return cf.finishErr(err)
	}
	printInstance(w, &sol.Core().Instance, cf.table)
	return nil
}

func cmdNormalize(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("normalize", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := cf.options()
	if err != nil {
		return err
	}
	ex, src, err := cf.load(opts...)
	if err != nil {
		return err
	}
	ctx, cancel := cf.context(ctx)
	defer cancel()
	normed, err := ex.Normalize(ctx, src)
	if err != nil {
		return cf.finishErr(err)
	}
	printInstance(w, normed, cf.table)
	return nil
}

func cmdQuery(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	qtext := fs.String("q", "", "inline query, e.g. 'query q(n) :- Emp(n, c, s)'")
	qname := fs.String("name", "", "run the query with this name from the mapping file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := cf.options()
	if err != nil {
		return err
	}
	ex, src, err := cf.load(opts...)
	if err != nil {
		return err
	}
	// -q (inline text) takes precedence over -name, as it always has.
	q := *qname
	if *qtext != "" {
		q = *qtext
	}
	ctx, cancel := cf.context(ctx)
	defer cancel()
	ans, err := ex.Answer(ctx, src, q)
	if err != nil {
		return cf.finishErr(err)
	}
	printInstance(w, ans, cf.table)
	return nil
}

func cmdSnapshot(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	at := fs.String("at", "", "time point (required)")
	target := fs.Bool("target", false, "chase first and snapshot the solution instead of the source")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *at == "" {
		return fmt.Errorf("-at time point is required")
	}
	tp, err := tdx.ParseTime(*at)
	if err != nil {
		return err
	}
	opts, err := cf.options()
	if err != nil {
		return err
	}
	ex, src, err := cf.load(opts...)
	if err != nil {
		return err
	}
	ctx, cancel := cf.context(ctx)
	defer cancel()
	var snap *tdx.Snapshot
	if *target {
		sol, err := ex.Run(ctx, src)
		if err != nil {
			return cf.finishErr(err)
		}
		snap, err = ex.Snapshot(ctx, sol, tp)
		if err != nil {
			return cf.finishErr(err)
		}
	} else {
		snap = src.Snapshot(tp)
	}
	fmt.Fprintf(w, "db%v = %s\n", tp, snap)
	return nil
}

func cmdDiff(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	other := fs.String("against", "", "second facts file (required): output is <-d> minus <-against>, per time point")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cf.data == "" || *other == "" {
		return fmt.Errorf("diff needs -d and -against fact files")
	}
	// With a mapping the fact files are validated against its source
	// schema; without one they parse schemaless.
	var ex *tdx.Exchange
	if cf.mapping != "" {
		var err error
		if ex, err = cf.compile(); err != nil {
			return err
		}
	}
	read := func(path string) (*tdx.Instance, error) {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if ex != nil {
			return ex.ParseSource(string(text))
		}
		return tdx.ParseInstance(string(text))
	}
	a, err := read(cf.data)
	if err != nil {
		return err
	}
	b, err := read(*other)
	if err != nil {
		return err
	}
	printInstance(w, a.Diff(b), cf.table)
	return nil
}

func cmdValidate(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ex, err := cf.compile()
	if err != nil {
		return err
	}
	info := ex.Info()
	fmt.Fprintf(w, "mapping ok: %d source relations, %d target relations, %d tgds, %d egds, %d queries\n",
		info.SourceRelations, info.TargetRelations, info.TGDs, info.EGDs, info.Queries)
	if cf.data != "" {
		src, err := cf.source(ex)
		if err != nil {
			return err
		}
		coalesced := "coalesced"
		if !src.IsCoalesced() {
			coalesced = "NOT coalesced"
		}
		fmt.Fprintf(w, "facts ok: %d facts, %s, complete=%v\n", src.Len(), coalesced, src.IsComplete())
	}
	return nil
}
