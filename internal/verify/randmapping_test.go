package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chase"
	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/normalize"
	"repro/internal/workload"
)

// TestCommutativityRandomMappings is the strongest form of the Figure 10
// property: random schema mappings (random schemas, tgds with shared
// variables and existentials, egds) × random source instances, each pair
// one commutativityTrial.
func TestCommutativityRandomMappings(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	failures, successes := 0, 0
	for trial := 0; trial < 200; trial++ {
		m := workload.RandomMapping(r)
		ic := workload.RandomInstanceFor(r, m, 1+r.Intn(5))
		if commutativityTrial(t, fmt.Sprintf("trial %d", trial), m, ic) {
			successes++
		} else {
			failures++
		}
	}
	if successes == 0 {
		t.Fatal("no successful trials — generator broken")
	}
	t.Logf("random mappings: %d successes, %d provable-failure cases", successes, failures)
}

// FuzzCommutativity runs one commutativityTrial per input: the
// RandomMapping of seed over a random source of 1–8 facts.
func FuzzCommutativity(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		r := rand.New(rand.NewSource(seed))
		m := workload.RandomMapping(r)
		ic := workload.RandomInstanceFor(r, m, 1+int(n%8))
		commutativityTrial(t, fmt.Sprintf("seed %d, %d facts", seed, ic.Len()), m, ic)
	})
}

// commutativityTrial chases ic under m with the c-chase and with the
// abstract chase. Both must fail with ErrNoSolution, or both succeed
// with a c-chase result that is a solution (Theorem 19) and
// homomorphically equivalent to the abstract chase's (Corollary 20). It
// reports whether the chases succeeded; name labels the failures.
func commutativityTrial(t *testing.T, name string, m *dependency.Mapping, ic *instance.Concrete) bool {
	t.Helper()
	jc, _, errC := chase.Concrete(ic, m, nil)
	ja, _, errA := chase.Abstract(ic.Abstract(), m, nil)
	if (errC == nil) != (errA == nil) {
		t.Fatalf("%s: failure mismatch\nmapping:\n%v\nsource:\n%s\nconcrete err=%v abstract err=%v",
			name, m, ic, errC, errA)
	}
	if errC != nil {
		if !errors.Is(errC, chase.ErrNoSolution) {
			t.Fatalf("%s: unexpected error kind %v", name, errC)
		}
		return false
	}
	if ok, why := IsSolution(ic.Abstract(), jc.Abstract(), m); !ok {
		t.Fatalf("%s: c-chase result is not a solution: %s\nmapping:\n%v\nsource:\n%s\nJc:\n%s",
			name, why, m, ic, jc)
	}
	if !HomEquivalent(jc.Abstract(), ja) {
		t.Fatalf("%s: ⟦Jc⟧ ≁ chase(⟦Ic⟧)\nmapping:\n%v\nsource:\n%s\nJc:\n%s\nJa:\n%s",
			name, m, ic, jc, ja)
	}
	return true
}

// TestCommutativityRandomMappingsNaive repeats the property under the
// naïve normalization strategy and stepwise egds — every configuration
// of the engine must satisfy Corollary 20.
func TestCommutativityRandomMappingsNaive(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	opts := &chase.Options{Norm: normalize.StrategyNaive, Egd: chase.EgdStepwise}
	for trial := 0; trial < 100; trial++ {
		m := workload.RandomMapping(r)
		ic := workload.RandomInstanceFor(r, m, 1+r.Intn(4))
		jc, _, errC := chase.Concrete(ic, m, opts)
		ja, _, errA := chase.Abstract(ic.Abstract(), m, nil)
		if (errC == nil) != (errA == nil) {
			t.Fatalf("trial %d: failure mismatch under naive/stepwise on:\nmapping:\n%v\nsource:\n%s",
				trial, m, ic)
		}
		if errC != nil {
			continue
		}
		if !HomEquivalent(jc.Abstract(), ja) {
			t.Fatalf("trial %d: naive/stepwise: ⟦Jc⟧ ≁ chase(⟦Ic⟧)\nmapping:\n%v\nsource:\n%s",
				trial, m, ic)
		}
	}
}
