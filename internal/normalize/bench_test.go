package normalize_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/normalize"
	"repro/internal/paperex"
	"repro/internal/workload"
)

// taxiSource draws a source of the repository benchmark's taxi-egd
// shape: 40 drivers on 29-step shifts over 16 cabs, each cab's rides
// filling a span of 100 with consecutive 1–5 step legs in 12 zones.
func taxiSource(seed int64) *instance.Concrete {
	const drivers, cabs, span, shift = 40, 16, 100, 29
	r := rand.New(rand.NewSource(seed))
	ic := instance.NewConcrete(workload.TaxiMapping().Source)
	for d := 0; d < drivers; d++ {
		s := interval.Time(r.Intn(span / 2))
		ic.MustInsert(fact.NewC("Shift", interval.MustNew(s, s+shift), paperex.C(fmt.Sprint("drv", d)), paperex.C(fmt.Sprint("cab", r.Intn(cabs)))))
	}
	for c := 0; c < cabs; c++ {
		for t := interval.Time(r.Intn(4)); t < span; {
			dur := 1 + interval.Time(r.Intn(5))
			ic.MustInsert(fact.NewC("Ride", interval.MustNew(t, t+dur), paperex.C(fmt.Sprint("cab", c)), paperex.C(fmt.Sprint("z", r.Intn(12)))))
			t += dur
		}
	}
	return ic
}

// BenchmarkMatchSets times one matchSets pass, Algorithm 1's
// enumeration, over the target the first egd round renormalizes: the
// tgd phase's output, against the mapping's egd bodies. On the taxi
// target most matches of Trip(d, c, z), Trip(d, c, z2) pair trips of
// disjoint intervals, which the join rejects before completing them;
// the employment target, where few do, prices the pruning where it
// saves little.
func BenchmarkMatchSets(b *testing.B) {
	cases := []struct {
		name string
		src  *instance.Concrete
		m    *dependency.Mapping
	}{
		{"taxi-40", taxiSource(1), workload.TaxiMapping()},
		{"employment-200", workload.Employment(workload.EmploymentConfig{
			Seed: 1, Persons: 200, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 200,
		}), paperex.EmploymentMapping()},
	}
	ctx := context.Background()
	for _, c := range cases {
		tgdOnly := *c.m
		tgdOnly.EGDs = nil
		tgt, _, err := chase.Concrete(c.src, &tgdOnly, nil)
		if err != nil {
			b.Fatal(err)
		}
		phis := c.m.EGDBodies()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			sets := 0
			for i := 0; i < b.N; i++ {
				out, err := normalize.MatchSets(ctx, tgt, phis)
				if err != nil {
					b.Fatal(err)
				}
				sets = len(out)
			}
			b.ReportMetric(float64(sets), "sets/op")
		})
	}
}
