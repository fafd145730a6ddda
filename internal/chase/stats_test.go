package chase

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/paperex"
)

// TestStatsJSONRoundTrip pins the Stats wire encoding: every exported
// field carries a stable lowerCamel json tag, the tags are pairwise
// distinct, and marshal→unmarshal reproduces the struct exactly. Filling
// each field with a distinct value catches two fields accidentally
// sharing a tag (the duplicate would survive marshaling but clobber on
// unmarshal).
func TestStatsJSONRoundTrip(t *testing.T) {
	var s Stats
	rv := reflect.ValueOf(&s).Elem()
	rt := rv.Type()
	tags := make(map[string]bool, rt.NumField())
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		tag := f.Tag.Get("json")
		if tag == "" || tag == "-" {
			t.Fatalf("Stats.%s has no json tag; the wire encoding must name every field", f.Name)
		}
		name := strings.Split(tag, ",")[0]
		if name == "" || !unicode.IsLower(rune(name[0])) {
			t.Fatalf("Stats.%s json tag %q is not lowerCamel", f.Name, tag)
		}
		if tags[name] {
			t.Fatalf("duplicate json tag %q", name)
		}
		tags[name] = true
		switch f.Type.Kind() {
		case reflect.Int:
			rv.Field(i).SetInt(int64(100 + i))
		case reflect.Bool:
			rv.Field(i).SetBool(true)
		default:
			t.Fatalf("Stats.%s is %v; extend this test before adding fields of new kinds", f.Name, f.Type)
		}
	}

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for name := range tags {
		if !strings.Contains(string(data), `"`+name+`"`) {
			t.Fatalf("encoded stats missing field %q:\n%s", name, data)
		}
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip changed stats:\n%+v\nvs\n%+v", back, s)
	}
}

// TestStatsJSONFieldNames pins the exact published names: renaming one is
// a wire-compatibility break for tdxd clients, so it must be a conscious
// test edit, not a refactor side effect.
func TestStatsJSONFieldNames(t *testing.T) {
	data, err := json.Marshal(Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"normalizedSourceFacts", "tgdHoms", "tgdFires", "factsCreated",
		"nullsCreated", "egdRounds", "egdMerges", "normalizeRuns",
		"rowsRewritten", "tgdWorkers", "egdWorkers",
		"deltaFacts", "deltaFires", "baseRowsRewritten", "fallbackFullChase",
	} {
		if !strings.Contains(string(data), `"`+want+`"`) {
			t.Fatalf("published field %q missing from encoding:\n%s", want, data)
		}
	}
}

// TestChaseStatsTotals pins the totals of the chases assembled from
// per-snapshot runs, on the Figure 4 employment chase: every counter is
// summed over the snapshots (RowsRewritten included) and the worker
// fields keep the larger value (EgdWorkers 1, not the sum).
func TestChaseStatsTotals(t *testing.T) {
	// Add carries every field: adding a filled Stats to a zero one
	// reproduces it.
	var filled, sum Stats
	rv := reflect.ValueOf(&filled).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Bool {
			f.SetBool(true)
		} else {
			f.SetInt(int64(i + 1))
		}
	}
	sum.Add(filled)
	if sum != filled {
		t.Fatalf("Stats.Add drops fields:\n got %+v\nwant %+v", sum, filled)
	}

	ic := paperex.Figure4()
	m := paperex.EmploymentMapping()
	_, got, err := Pointwise(ic, m, 2020, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{TGDHoms: 23, TGDFires: 23, FactsCreated: 23, NullsCreated: 13,
		EgdRounds: 2027, EgdMerges: 10, RowsRewritten: 10, EgdWorkers: 1}
	if got != want {
		t.Fatalf("pointwise stats:\n got %+v\nwant %+v", got, want)
	}
	_, got, err = Abstract(ic.Abstract(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	want = Stats{TGDHoms: 13, TGDFires: 13, FactsCreated: 13, NullsCreated: 8,
		EgdRounds: 10, EgdMerges: 5, RowsRewritten: 5, EgdWorkers: 1}
	if got != want {
		t.Fatalf("abstract stats:\n got %+v\nwant %+v", got, want)
	}
}
