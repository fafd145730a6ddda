package chase

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/dependency"
	"repro/internal/instance"
	"repro/internal/jsonio"
	"repro/internal/normalize"
	"repro/internal/paperex"
	"repro/internal/value"
	"repro/internal/workload"
)

// goldenDigestsFile pins the exact output of the c-chase over a fixed
// configuration matrix: one SHA-256 per configuration over the JSON
// document (jsonio.Encode), the Stats JSON, and the solution's physical
// store layout (live row numbers per relation, in store order). The
// digests were recorded before the normalization hot path was rewritten,
// so a mismatch means an optimization changed the output bytes, the
// statistics, or the row order a later stage observes.
const goldenDigestsFile = "testdata/golden_digests.txt"

// goldenCase is one configuration of the digest matrix.
type goldenCase struct {
	name string
	src  *instance.Concrete
	m    *dependency.Mapping
}

// goldenCases lists the workloads of the digest matrix: employment, taxi
// and medical at seeds 1–6, the egd-stress workload, and 50 random
// mappings over 300-fact random sources, which pin mapping shapes the
// fixed workloads lack (existential multi-atom heads, self-joins, no
// solution).
func goldenCases() []goldenCase {
	var cs []goldenCase
	for seed := int64(1); seed <= 6; seed++ {
		cs = append(cs,
			goldenCase{fmt.Sprintf("employment/seed=%d", seed),
				workload.Employment(workload.EmploymentConfig{Seed: seed, Persons: 40, JobsPerPerson: 4, SalaryCoverage: 0.7, Span: 100}),
				paperex.EmploymentMapping()},
			goldenCase{fmt.Sprintf("taxi/seed=%d", seed),
				workload.Taxi(workload.TaxiConfig{Seed: seed, Drivers: 30, Cabs: 12, Span: 40}),
				workload.TaxiMapping()},
			goldenCase{fmt.Sprintf("medical/seed=%d", seed),
				workload.Medical(workload.MedicalConfig{Seed: seed, Patients: 60, Span: 80}),
				workload.MedicalMapping()},
		)
	}
	cs = append(cs, goldenCase{"egd-stress", workload.EgdStress(24, 6), workload.EgdStressMapping(6)})
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := workload.RandomMapping(r)
		cs = append(cs, goldenCase{fmt.Sprintf("rand/seed=%d", seed), workload.RandomInstanceFor(r, m, 300), m})
	}
	return cs
}

// goldenDigest runs one configuration and digests its observable output.
func goldenDigest(t *testing.T, c goldenCase, norm normalize.Strategy) string {
	t.Helper()
	out, stats, err := Concrete(c.src, c.m, &Options{Norm: norm})
	if err != nil {
		return "error: " + err.Error()
	}
	doc, err := jsonio.Encode(out)
	if err != nil {
		t.Fatalf("%s: encode: %v", c.name, err)
	}
	sj, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(doc)
	h.Write(sj)
	st := out.Store()
	for _, rel := range st.Relations() {
		r := st.Rel(rel)
		r.EachLive(func(row int) bool {
			fmt.Fprintf(h, "%s#%d:%v\n", rel, row, value.HashIDs(r.Row(row)))
			return true
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests recomputes the 138-configuration matrix — every case
// under smart and naive normalization — and compares it with the
// recorded digests. The keys keep the workers=1 suffix they were
// recorded under. On a mismatch the full recomputed table is logged in
// the file's format.
func TestGoldenDigests(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open(goldenDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[key] = digest
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var table strings.Builder
	mismatches, n := 0, 0
	for _, c := range goldenCases() {
		for _, norm := range []normalize.Strategy{normalize.StrategySmart, normalize.StrategyNaive} {
			key := fmt.Sprintf("%s/%s/workers=1", c.name, norm)
			got := goldenDigest(t, c, norm)
			fmt.Fprintf(&table, "%s %s\n", key, got)
			n++
			if want[key] != got {
				mismatches++
				t.Errorf("%s: digest %s, want %q", key, got, want[key])
			}
		}
	}
	if n != 138 || len(want) != n {
		t.Errorf("matrix has %d configurations and the golden file %d, want 138 each", n, len(want))
	}
	if mismatches > 0 || len(want) != n {
		t.Logf("recomputed table:\n%s", table.String())
	}
}
