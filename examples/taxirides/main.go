// Taxirides integrates driver shift rosters with per-cab ride logs into
// per-driver trip records — the ride-sharing scenario cited in the
// paper's introduction ([26]: taxi and bicycle rides). Shifts and rides
// are recorded on misaligned intervals, so the example highlights
// normalization: the shared temporal variable of the shift-ride join
// finds no homomorphism until the instance is fragmented. The pipeline
// runs on the public tdx API; the one peek at internals (logic.Exists)
// demonstrates the §4.2 phenomenon the API's Normalize fixes.
package main

import (
	"context"
	"fmt"
	"log"

	tdx "repro"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/logic"
	"repro/internal/paperex"
	"repro/internal/query"
	"repro/internal/workload"
)

func iv(s, e interval.Time) interval.Interval { return interval.MustNew(s, e) }

func main() {
	ctx := context.Background()
	m := workload.TaxiMapping()
	ex, err := tdx.FromMapping(m, tdx.WithCoalesce(true))
	if err != nil {
		log.Fatal(err)
	}
	c := paperex.C

	fleet := instance.NewConcrete(m.Source)
	for _, f := range []fact.CFact{
		// Dee drives cab7 for a long shift; the cab's ride log is finer.
		fact.NewC("Shift", iv(0, 12), c("dee"), c("cab7")),
		fact.NewC("Ride", iv(2, 5), c("cab7"), c("downtown")),
		fact.NewC("Ride", iv(5, 9), c("cab7"), c("airport")),
		// Eve takes over the same cab later.
		fact.NewC("Shift", iv(12, 20), c("eve"), c("cab7")),
		fact.NewC("Ride", iv(11, 15), c("cab7"), c("harbor")),
	} {
		if _, err := fleet.Insert(f); err != nil {
			log.Fatal(err)
		}
	}
	src := tdx.NewInstance(fleet)
	fmt.Println("source (shifts and ride logs):")
	fmt.Print(src.Table())

	// The §4.2 phenomenon: before normalization the shift-ride join has
	// no homomorphism — no single interval serves both atoms.
	join := m.TGDs[1].ConcreteBody()
	fmt.Printf("\nhomomorphism for Shift⋈Ride before normalization: %v\n",
		logic.Exists(src.Concrete().Store(), join, nil))
	norm, err := ex.Normalize(ctx, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after norm(Ic, Φ+) (%d → %d facts):              %v\n",
		src.Len(), norm.Len(), logic.Exists(norm.Concrete().Store(), join, nil))

	sol, err := ex.Run(ctx, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nintegrated trips (zones unknown where the log is silent):")
	fmt.Print(sol.Table())

	// Where was Dee, certainly, and when? Queries with literal constants
	// go through the query package's programmatic rule form.
	u, err := query.NewUCQ("where", query.CQ{
		Name: "where",
		Head: []string{"z"},
		Body: logic.Conjunction{logic.NewAtom("Trip", logic.Lit(paperex.C("dee")), logic.Var("c"), logic.Var("z"))},
	})
	if err != nil {
		log.Fatal(err)
	}
	ans, err := query.NaiveEval(ctx, u, sol.Concrete())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncertain answers to where(z) :- Trip(dee, c, z):")
	fmt.Print(tdx.NewInstance(ans).Table())

	// A bigger synthetic fleet through the same compiled exchange.
	big := tdx.NewInstance(workload.Taxi(workload.TaxiConfig{Seed: 7, Drivers: 150, Cabs: 60, Span: 100}))
	bigSol, err := ex.Run(ctx, big, tdx.WithCoalesce(false))
	if err != nil {
		log.Fatal(err)
	}
	stats := bigSol.Stats()
	fmt.Printf("\nsynthetic fleet: %d source facts → %d trips "+
		"(source normalized to %d facts, %d egd rounds)\n",
		big.Len(), bigSol.Len(), stats.NormalizedSourceFacts, stats.EgdRounds)
}
