package chase

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/interval"
	"repro/internal/jsonio"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestTraceWorkerIndependent pins that the trace is a function of the
// input alone: the full Event stream, detail text included, is the same
// at every worker count.
func TestTraceWorkerIndependent(t *testing.T) {
	cases := []struct {
		name string
		run  func(*Options) error
	}{
		{"employment", func(o *Options) error {
			emp := workload.Employment(workload.EmploymentConfig{Seed: 1, Persons: 60, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 120})
			_, _, err := Concrete(emp, paperex.EmploymentMapping(), o)
			return err
		}},
		{"taxi", func(o *Options) error {
			taxi := workload.Taxi(workload.TaxiConfig{Seed: 7, Drivers: 50, Cabs: 20, Span: 60})
			_, _, err := Concrete(taxi, workload.TaxiMapping(), o)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want []Event
			for _, workers := range []int{1, 2, 4} {
				var got []Event
				if err := c.run(&Options{Workers: workers, Trace: func(e Event) { got = append(got, e) }}); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if workers == 1 {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d events, workers=1 emitted %d", workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: event %d is %q, workers=1 emitted %q", workers, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestTGDHeadErrors drives tgds whose head breaks the target schema — an
// unknown relation, a wrong arity — with and without an existential,
// over a source above parallelCutoffFacts: every worker count must fail
// with the text instance.Insert gives.
func TestTGDHeadErrors(t *testing.T) {
	n, c, y := logic.Var("n"), logic.Var("c"), logic.Var("y")
	emp := paperex.EmploymentMapping()
	src := workload.Employment(workload.EmploymentConfig{Seed: 1, Persons: 60, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 120})
	cases := []struct {
		name string
		head logic.Atom
		want string
	}{
		{"unknown", logic.NewAtom("Nope", n, c), "chase: tgd bad: instance: unknown relation Nope"},
		{"unknown/exist", logic.NewAtom("Nope", n, y), "chase: tgd bad: instance: unknown relation Nope"},
		{"arity", logic.NewAtom("Emp", n, c), "chase: tgd bad: instance: Emp expects 3 data attributes, got 2"},
		{"arity/exist", logic.NewAtom("Emp", n, y), "chase: tgd bad: instance: Emp expects 3 data attributes, got 2"},
	}
	for _, tc := range cases {
		m := &dependency.Mapping{Source: emp.Source, Target: emp.Target, TGDs: []dependency.TGD{
			{Name: "bad", Body: logic.Conjunction{logic.NewAtom("E", n, c)}, Head: logic.Conjunction{tc.head}},
		}}
		for _, workers := range []int{1, 4} {
			_, _, err := Concrete(src, m, &Options{Workers: workers})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s workers=%d: err = %v, want %q", tc.name, workers, err, tc.want)
			}
		}
	}
}

// TestTGDHeadLiterals chases two tgds whose heads carry literals absent
// from the source, one with an existential and one without: the JSON
// document and the statistics must not depend on the worker count. The
// digest was recorded under the map-based sequential pass. Literals may
// be interned in another order than that pass interned them, so their
// IDs stay out of the digest.
func TestTGDHeadLiterals(t *testing.T) {
	const want = "b99740457f5ea69ed5b37464bcb2f3c73af516668ded22fe144628abd89f34f7"
	n, c, s := logic.Var("n"), logic.Var("c"), logic.Var("s")
	emp := paperex.EmploymentMapping()
	m := &dependency.Mapping{
		Source: emp.Source,
		Target: schema.MustNew(schema.MustRelation("Emp", "name", "company", "salary"), schema.MustRelation("Tag", "name", "label")),
		TGDs: []dependency.TGD{
			{Name: "paid", Body: logic.Conjunction{logic.NewAtom("S", n, s)},
				Head: logic.Conjunction{logic.NewAtom("Emp", n, c, s), logic.NewAtom("Tag", n, logic.Const("paid"))}},
			{Name: "hired", Body: logic.Conjunction{logic.NewAtom("E", n, c)},
				Head: logic.Conjunction{logic.NewAtom("Tag", n, logic.Const("hired")), logic.NewAtom("Emp", n, c, logic.Const("unknown"))}},
		},
	}
	src := workload.Employment(workload.EmploymentConfig{Seed: 1, Persons: 60, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 120})
	for _, workers := range []int{1, 2, 4} {
		out, stats, err := Concrete(src, m, &Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers > 1 && stats.TGDWorkers != workers {
			t.Fatalf("workers=%d: the tgd phase used %d workers", workers, stats.TGDWorkers)
		}
		doc, err := jsonio.Encode(out)
		if err != nil {
			t.Fatal(err)
		}
		stats.TGDWorkers, stats.EgdWorkers = 0, 0
		sj, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(doc)
		h.Write(sj)
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("workers=%d: digest %s, want %s", workers, got, want)
		}
	}
}

// TestTGDHeadOddLiterals covers the head rows built the way
// instance.Insert builds them, at every worker count: an annotated-null
// literal is re-annotated to each firing's interval, and an interval
// literal fails Validate.
func TestTGDHeadOddLiterals(t *testing.T) {
	n, c := logic.Var("n"), logic.Var("c")
	emp := paperex.EmploymentMapping()
	tgt := schema.MustNew(schema.MustRelation("Tag", "name", "label"))
	src := workload.Employment(workload.EmploymentConfig{Seed: 1, Persons: 60, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 120})
	mapping := func(lit value.Value) *dependency.Mapping {
		return &dependency.Mapping{Source: emp.Source, Target: tgt, TGDs: []dependency.TGD{
			{Name: "odd", Body: logic.Conjunction{logic.NewAtom("E", n, c)}, Head: logic.Conjunction{logic.NewAtom("Tag", n, logic.Lit(lit))}},
		}}
	}
	var want string
	for _, workers := range []int{1, 2, 4} {
		out, _, err := Concrete(src, mapping(value.NewAnnNull(7, interval.MustNew(0, 1))), &Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out.EachFact(func(f fact.CFact) bool {
			if f.Args[1] != value.NewAnnNull(7, f.T) {
				t.Fatalf("workers=%d: %v: literal not re-annotated to the fact's interval", workers, f)
			}
			return true
		})
		if workers == 1 {
			want = out.String()
		} else if out.String() != want {
			t.Fatalf("workers=%d: solution differs from workers=1", workers)
		}
		_, _, err = Concrete(src, mapping(value.NewInterval(interval.MustNew(0, 1))), &Options{Workers: workers})
		if msg := "chase: tgd odd: fact Tag: argument 1 is an interval; intervals may only appear as the temporal attribute"; err == nil || err.Error() != msg {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, msg)
		}
	}
}

// FuzzChaseWorkers chases a random mapping over a random source at
// several worker counts: the runs must fail with the same text, or
// return the same solution and the same Stats apart from the worker
// fields. The seed corpus is the first six seeds at 300 facts.
func FuzzChaseWorkers(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint16(250))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		r := rand.New(rand.NewSource(seed))
		m := workload.RandomMapping(r)
		ic := workload.RandomInstanceFor(r, m, 50+int(n%600))
		var want string
		var wantStats Stats
		var wantErr error
		for _, workers := range []int{1, 2, 3, 8} {
			out, stats, err := Concrete(ic, m, &Options{Workers: workers})
			if workers == 1 {
				wantErr = err
				if err == nil {
					want, wantStats = out.String(), stats
				}
				continue
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("workers=%d: err = %v, workers=1 err = %v", workers, err, wantErr)
			}
			if err != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("workers=%d: err = %v, workers=1 err = %v", workers, err, wantErr)
				}
				continue
			}
			if got := out.String(); got != want {
				t.Fatalf("workers=%d: solution differs from workers=1\nworkers=1:\n%s\nworkers=%d:\n%s", workers, want, workers, got)
			}
			if !equalStats(stats, wantStats) {
				t.Fatalf("workers=%d: stats differ:\nworkers=1: %+v\nworkers=%d: %+v", workers, wantStats, workers, stats)
			}
		}
	})
}
