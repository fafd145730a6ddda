package instance

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fact"
	"repro/internal/interval"
	"repro/internal/schema"
	"repro/internal/value"
)

func iv(s, e interval.Time) interval.Interval { return interval.MustNew(s, e) }
func cs(s string) value.Value                 { return value.NewConst(s) }

const inf = interval.Infinity

// figure4 builds the concrete source instance Ic of the paper's Figure 4.
func figure4(t testing.TB) *Concrete {
	sch := schema.MustNew(
		schema.MustRelation("E", "name", "company"),
		schema.MustRelation("S", "name", "salary"),
	)
	c := NewConcrete(sch)
	for _, f := range []fact.CFact{
		fact.NewC("E", iv(2012, 2014), cs("Ada"), cs("IBM")),
		fact.NewC("E", iv(2014, inf), cs("Ada"), cs("Google")),
		fact.NewC("E", iv(2013, 2018), cs("Bob"), cs("IBM")),
		fact.NewC("S", iv(2013, inf), cs("Ada"), cs("18k")),
		fact.NewC("S", iv(2015, inf), cs("Bob"), cs("13k")),
	} {
		if _, err := c.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestInsertValidation(t *testing.T) {
	c := figure4(t)
	if _, err := c.Insert(fact.NewC("Nope", iv(1, 2), cs("x"))); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := c.Insert(fact.NewC("E", iv(1, 2), cs("only-one-arg"))); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := c.Insert(fact.CFact{Rel: "E", Args: []value.Value{cs("a"), cs("b")}}); err == nil {
		t.Fatal("zero interval accepted")
	}
	added, err := c.Insert(fact.NewC("E", iv(2012, 2014), cs("Ada"), cs("IBM")))
	if err != nil || added {
		t.Fatal("duplicate should be accepted but not added")
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestSchemalessInsertRejectsSecondArity: a relation has one arity
// (paper §2). Without a schema its first fact fixes it, and a fact of
// another arity is rejected with the relation and both arities named;
// under a schema the schema's arity is checked as before.
func TestSchemalessInsertRejectsSecondArity(t *testing.T) {
	c := NewConcrete(nil)
	c.MustInsert(fact.NewC("R", iv(0, 1), cs("a")))
	_, err := c.Insert(fact.NewC("R", iv(0, 2), cs("a"), cs("b")))
	if want := "instance: R has 1 data attributes, got 2"; err == nil || err.Error() != want {
		t.Fatalf("second arity: err = %v, want %q", err, want)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after a rejected fact, want 1", c.Len())
	}
	_, err = figure4(t).Insert(fact.NewC("E", iv(1, 2), cs("x")))
	if want := "instance: E expects 2 data attributes, got 1"; err == nil || err.Error() != want {
		t.Fatalf("schema arity: err = %v, want %q", err, want)
	}
}

func TestInsertRowOfAndIntervalAt(t *testing.T) {
	c := figure4(t)
	out := NewConcreteWith(c.Schema(), c.Interner())
	for _, rel := range c.Relations() {
		r := c.Store().Rel(rel)
		r.EachLive(func(row int) bool {
			if got, want := IntervalAt(r, row), c.FactAt(rel, row).T; got != want {
				t.Fatalf("IntervalAt(%s#%d) = %v, want %v", rel, row, got, want)
			}
			if added, err := out.InsertRowOf(c, rel, row); err != nil || !added {
				t.Fatalf("InsertRowOf(%s#%d) = %v, %v", rel, row, added, err)
			}
			return true
		})
	}
	if !out.Equal(c) {
		t.Fatalf("row copy differs:\n%s", out)
	}
	// Insert's checks apply: the target schema lacks S.
	eOnly := NewConcreteWith(schema.MustNew(schema.MustRelation("E", "name", "company")), c.Interner())
	if _, err := eOnly.InsertRowOf(c, "S", 0); err == nil {
		t.Fatal("InsertRowOf accepted a relation outside the schema")
	}
	// A row without an interval tail panics like FromTuple.
	bad := NewConcrete(nil)
	bad.Store().Insert("R", []value.Value{cs("a")})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "lacks interval tail") {
			t.Fatalf("IntervalAt panic = %q", msg)
		}
	}()
	IntervalAt(bad.Store().Rel("R"), 0)
}

func TestSnapshotMatchesFigure1(t *testing.T) {
	// ⟦Ic⟧ at the paper's sampled years (Figure 1).
	c := figure4(t)
	tests := []struct {
		tp   interval.Time
		want string
	}{
		{2012, "{E(Ada, IBM)}"},
		{2013, "{E(Ada, IBM), E(Bob, IBM), S(Ada, 18k)}"},
		{2014, "{E(Ada, Google), E(Bob, IBM), S(Ada, 18k)}"},
		{2015, "{E(Ada, Google), E(Bob, IBM), S(Ada, 18k), S(Bob, 13k)}"},
		{2018, "{E(Ada, Google), S(Ada, 18k), S(Bob, 13k)}"},
		{2011, "{}"},
	}
	for _, tt := range tests {
		if got := c.Snapshot(tt.tp).String(); got != tt.want {
			t.Errorf("snapshot %v = %s want %s", tt.tp, got, tt.want)
		}
	}
}

func TestAbstractSegmentsAndSnapshots(t *testing.T) {
	c := figure4(t)
	a := c.Abstract()
	// Segments: [0,2012) [2012,2013) [2013,2014) [2014,2015) [2015,2018) [2018,inf)
	segs := a.Segments()
	if len(segs) != 6 {
		t.Fatalf("segments = %d: %v", len(segs), a.Cuts())
	}
	if segs[0].Iv != iv(0, 2012) || !segs[5].Iv.Unbounded() {
		t.Fatalf("segment bounds wrong: first %v last %v", segs[0].Iv, segs[5].Iv)
	}
	// Abstract snapshots agree with direct concrete projection everywhere.
	for tp := interval.Time(2010); tp < 2020; tp++ {
		if !a.Snapshot(tp).Equal(c.Snapshot(tp)) {
			t.Fatalf("snapshot mismatch at %v: %s vs %s", tp, a.Snapshot(tp), c.Snapshot(tp))
		}
	}
}

func TestAnnotatedNullProjection(t *testing.T) {
	// Emp(Bob, IBM, M^[2013,2015), [2013,2015)) from Figure 9: snapshots
	// 2013 and 2014 must hold distinct labeled nulls.
	c := NewConcrete(nil)
	m := value.NewAnnNull(42, iv(2013, 2015))
	c.MustInsert(fact.NewC("Emp", iv(2013, 2015), cs("Bob"), cs("IBM"), m))
	s13 := c.Snapshot(2013).Facts()
	s14 := c.Snapshot(2014).Facts()
	if len(s13) != 1 || len(s14) != 1 {
		t.Fatal("projection lost facts")
	}
	if s13[0].Args[2] == s14[0].Args[2] {
		t.Fatal("annotated null must project to distinct nulls per snapshot")
	}
	if c.Snapshot(2015).Len() != 0 {
		t.Fatal("fact leaked outside its interval")
	}
}

func TestIsCompleteAndIsCoalesced(t *testing.T) {
	c := figure4(t)
	if !c.IsComplete() {
		t.Fatal("source instance is complete")
	}
	if !c.IsCoalesced() {
		t.Fatal("figure 4 instance is coalesced")
	}
	c2 := c.Clone()
	c2.MustInsert(fact.NewC("E", iv(2014, 2016), cs("Ada"), cs("IBM"))) // adjacent to [2012,2014)
	if c2.IsCoalesced() {
		t.Fatal("adjacent same-data facts must break coalescedness")
	}
	var g value.NullGen
	c3 := NewConcrete(nil)
	c3.MustInsert(fact.NewC("R", iv(1, 2), g.FreshAnn(iv(1, 2))))
	if c3.IsComplete() {
		t.Fatal("instance with null reported complete")
	}
}

func TestCoalesceMergesFragments(t *testing.T) {
	// Fragment a fact, then coalesce: the original returns, with null
	// annotations restored.
	var g value.NullGen
	n := g.FreshAnn(iv(5, 11))
	orig := NewConcrete(nil)
	orig.MustInsert(fact.NewC("R", iv(5, 11), cs("a"), n))
	frag := NewConcrete(nil)
	for _, f := range orig.Facts()[0].Fragment([]interval.Time{7, 8, 10}) {
		frag.MustInsert(f)
	}
	if frag.Len() != 4 || frag.IsCoalesced() {
		t.Fatalf("fragmentation failed: %v", frag)
	}
	back := frag.Coalesce()
	if !back.Equal(orig) {
		t.Fatalf("coalesce did not restore original:\n%s\nvs\n%s", back, orig)
	}
	if !back.IsCoalesced() {
		t.Fatal("coalesced output not coalesced")
	}
}

func TestCoalesceKeepsDistinctFamiliesApart(t *testing.T) {
	// Adjacent facts whose nulls belong to different families must NOT
	// merge: they represent unrelated unknowns.
	var g value.NullGen
	c := NewConcrete(nil)
	c.MustInsert(fact.NewC("R", iv(1, 2), cs("a"), g.FreshAnn(iv(1, 2))))
	c.MustInsert(fact.NewC("R", iv(2, 3), cs("a"), g.FreshAnn(iv(2, 3))))
	out := c.Coalesce()
	if out.Len() != 2 {
		t.Fatalf("distinct null families merged: %s", out)
	}
	// But gaps also prevent merging for constants.
	d := NewConcrete(nil)
	d.MustInsert(fact.NewC("R", iv(1, 2), cs("a")))
	d.MustInsert(fact.NewC("R", iv(5, 6), cs("a")))
	if d.Coalesce().Len() != 2 {
		t.Fatal("gap-separated facts merged")
	}
}

func TestAbstractToConcreteRoundTrip(t *testing.T) {
	c := figure4(t)
	back, err := c.Abstract().ToConcrete()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c.Coalesce()) {
		t.Fatalf("round trip changed instance:\n%s\nvs\n%s", back, c)
	}
}

func TestToConcreteRejectsSharedNulls(t *testing.T) {
	// J1 of Figure 2: the same labeled null in consecutive snapshots has
	// no concrete representation.
	n := value.NewNull(1)
	segs := []Segment{
		{Iv: iv(0, 2), Facts: []fact.CFact{{Rel: "Emp", Args: []value.Value{cs("Ada"), cs("IBM"), n}, T: iv(0, 2)}}},
		{Iv: iv(2, inf)},
	}
	a, err := NewAbstract(segs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ToConcrete(); err == nil {
		t.Fatal("shared null must be rejected")
	}
}

func TestFigure2Instances(t *testing.T) {
	// J1: same null N across db0, db1. J2: per-snapshot nulls M1, M2.
	n := value.NewNull(1)
	j1, err := NewAbstract([]Segment{
		{Iv: iv(0, 2), Facts: []fact.CFact{{Rel: "Emp", Args: []value.Value{cs("Ada"), cs("IBM"), n}, T: iv(0, 2)}}},
		{Iv: iv(2, inf)},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := value.NewAnnNull(2, iv(0, 2))
	j2c := NewConcrete(nil)
	j2c.MustInsert(fact.NewC("Emp", iv(0, 2), cs("Ada"), cs("IBM"), m))
	j2 := j2c.Abstract()

	// J1's null is identical across snapshots; J2's are distinct.
	n0 := j1.Snapshot(0).Nulls()
	n1 := j1.Snapshot(1).Nulls()
	if len(n0) != 1 || len(n1) != 1 || n0[0] != n1[0] {
		t.Fatal("J1 must share one null across snapshots")
	}
	m0 := j2.Snapshot(0).Nulls()
	m1 := j2.Snapshot(1).Nulls()
	if len(m0) != 1 || len(m1) != 1 || m0[0] == m1[0] {
		t.Fatal("J2 must have distinct nulls per snapshot")
	}
	if j1.EqualTo(j2) {
		t.Fatal("J1 and J2 are different instances")
	}
	if !j1.EqualTo(j1) || !j2.EqualTo(j2) {
		t.Fatal("EqualTo must be reflexive")
	}
}

func TestNewAbstractValidation(t *testing.T) {
	if _, err := NewAbstract(nil); err == nil {
		t.Fatal("empty segment list accepted")
	}
	if _, err := NewAbstract([]Segment{{Iv: iv(1, inf)}}); err == nil {
		t.Fatal("segment not starting at 0 accepted")
	}
	if _, err := NewAbstract([]Segment{{Iv: iv(0, 5)}}); err == nil {
		t.Fatal("bounded last segment accepted")
	}
	if _, err := NewAbstract([]Segment{{Iv: iv(0, 5)}, {Iv: iv(6, inf)}}); err == nil {
		t.Fatal("gap between segments accepted")
	}
	if _, err := NewAbstract([]Segment{
		{Iv: iv(0, 5), Facts: []fact.CFact{fact.NewC("R", iv(0, 4), cs("a"))}},
		{Iv: iv(5, inf)},
	}); err == nil {
		t.Fatal("fact interval disagreeing with segment accepted")
	}
}

func TestRefinePreservesSnapshots(t *testing.T) {
	c := figure4(t)
	a := c.Abstract()
	r := a.Refine([]interval.Time{2013, 2016, 2030})
	for tp := interval.Time(2010); tp < 2035; tp += 1 {
		if !a.Snapshot(tp).Equal(r.Snapshot(tp)) {
			t.Fatalf("refine changed snapshot at %v", tp)
		}
	}
	if !a.EqualTo(r) || !r.EqualTo(a) {
		t.Fatal("refined instance must stay equal")
	}
}

func TestStringRenderings(t *testing.T) {
	c := figure4(t)
	s := c.String()
	if !strings.Contains(s, "E(Ada, IBM, [2012,2014))") {
		t.Fatalf("concrete String misses fact: %s", s)
	}
	a := c.Abstract().String()
	if !strings.Contains(a, "[2012,2013)") || !strings.Contains(a, "E(Ada, IBM)") {
		t.Fatalf("abstract String: %s", a)
	}
}

func TestQuickCoalescePreservesSemantics(t *testing.T) {
	// Random instances: coalescing never changes any snapshot, output is
	// coalesced, and coalescing is idempotent.
	r := rand.New(rand.NewSource(19))
	var g value.NullGen
	for trial := 0; trial < 300; trial++ {
		c := NewConcrete(nil)
		for i := 0; i < 1+r.Intn(12); i++ {
			s := interval.Time(r.Intn(15))
			e := s + 1 + interval.Time(r.Intn(10))
			t0 := iv(s, e)
			args := []value.Value{cs(string(rune('a' + r.Intn(3))))}
			if r.Intn(4) == 0 {
				args = append(args, g.FreshAnn(t0))
			} else {
				args = append(args, cs(string(rune('x'+r.Intn(2)))))
			}
			c.MustInsert(fact.NewC("R", t0, args...))
		}
		co := c.Coalesce()
		if !co.IsCoalesced() {
			t.Fatalf("output not coalesced:\n%s", co)
		}
		for tp := interval.Time(0); tp < 30; tp++ {
			if !c.Snapshot(tp).Equal(co.Snapshot(tp)) {
				t.Fatalf("coalesce changed snapshot %v:\n%s\nvs\n%s", tp, c, co)
			}
		}
		again := co.Coalesce()
		if !again.Equal(co) {
			t.Fatalf("coalesce not idempotent:\n%s\nvs\n%s", co, again)
		}
	}
}

func TestQuickAbstractRoundTrip(t *testing.T) {
	// Abstract → ToConcrete is the coalesced original on random complete
	// and annotated instances.
	r := rand.New(rand.NewSource(23))
	var g value.NullGen
	for trial := 0; trial < 200; trial++ {
		c := NewConcrete(nil)
		for i := 0; i < 1+r.Intn(8); i++ {
			s := interval.Time(r.Intn(12))
			var t0 interval.Interval
			if r.Intn(5) == 0 {
				t0 = interval.Interval{Start: s, End: inf}
			} else {
				t0 = iv(s, s+1+interval.Time(r.Intn(8)))
			}
			args := []value.Value{cs(string(rune('a' + r.Intn(3))))}
			if r.Intn(3) == 0 {
				args = append(args, g.FreshAnn(t0))
			} else {
				args = append(args, cs("k"))
			}
			c.MustInsert(fact.NewC("R", t0, args...))
		}
		back, err := c.Abstract().ToConcrete()
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(c.Coalesce()) {
			t.Fatalf("round trip mismatch:\n%s\nvs\n%s", back, c.Coalesce())
		}
	}
}

func TestDiffBasics(t *testing.T) {
	a := NewConcrete(nil)
	a.MustInsert(fact.NewC("E", iv(0, 10), cs("Ada"), cs("IBM")))
	a.MustInsert(fact.NewC("E", iv(0, 5), cs("Bob"), cs("X")))
	b := NewConcrete(nil)
	b.MustInsert(fact.NewC("E", iv(3, 7), cs("Ada"), cs("IBM")))
	d := Diff(a, b)
	// Ada-IBM survives on [0,3) and [7,10); Bob untouched.
	want := NewConcrete(nil)
	want.MustInsert(fact.NewC("E", iv(0, 3), cs("Ada"), cs("IBM")))
	want.MustInsert(fact.NewC("E", iv(7, 10), cs("Ada"), cs("IBM")))
	want.MustInsert(fact.NewC("E", iv(0, 5), cs("Bob"), cs("X")))
	if !d.Equal(want) {
		t.Fatalf("Diff =\n%s\nwant\n%s", d, want)
	}
	// Unbounded subtraction.
	c1 := NewConcrete(nil)
	c1.MustInsert(fact.NewC("E", interval.Interval{Start: 0, End: inf}, cs("x"), cs("y")))
	c2 := NewConcrete(nil)
	c2.MustInsert(fact.NewC("E", iv(5, 8), cs("x"), cs("y")))
	d2 := Diff(c1, c2)
	if d2.Len() != 2 || !d2.Contains(fact.NewC("E", interval.Interval{Start: 8, End: inf}, cs("x"), cs("y"))) {
		t.Fatalf("unbounded diff:\n%s", d2)
	}
}

func TestDiffNullFamilies(t *testing.T) {
	// A null fact is only covered by fragments of the same family.
	var g value.NullGen
	n := g.FreshAnn(iv(0, 6))
	m := g.FreshAnn(iv(2, 4))
	a := NewConcrete(nil)
	a.MustInsert(fact.NewC("R", iv(0, 6), cs("k"), n))
	sameFam := NewConcrete(nil)
	sameFam.MustInsert(fact.NewC("R", iv(2, 4), cs("k"), n.WithAnnotation(iv(2, 4))))
	otherFam := NewConcrete(nil)
	otherFam.MustInsert(fact.NewC("R", iv(2, 4), cs("k"), m))
	if got := Diff(a, sameFam); got.Len() != 2 {
		t.Fatalf("same family should subtract:\n%s", got)
	}
	if got := Diff(a, otherFam); got.Len() != 1 || !got.Contains(a.Facts()[0]) {
		t.Fatalf("different family must not subtract:\n%s", got)
	}
}

func TestSameSemantics(t *testing.T) {
	a := figure4(t)
	// Fragmenting does not change semantics.
	frag := NewConcrete(a.Schema())
	for _, f := range a.Facts() {
		for _, fr := range f.Fragment([]interval.Time{2013, 2015, 2016}) {
			frag.MustInsert(fr)
		}
	}
	if !SameSemantics(a, frag) {
		t.Fatal("fragmentation changed semantics")
	}
	b := a.Clone()
	b.MustInsert(fact.NewC("E", iv(1, 2), cs("zoe"), cs("Z")))
	if SameSemantics(a, b) {
		t.Fatal("different instances reported same")
	}
}

func TestQuickDiffSemantics(t *testing.T) {
	// Diff agrees with per-snapshot set difference on random instances.
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 200; trial++ {
		mk := func() *Concrete {
			c := NewConcrete(nil)
			for i := 0; i < 1+r.Intn(6); i++ {
				s := interval.Time(r.Intn(10))
				c.MustInsert(fact.NewC("R", iv(s, s+1+interval.Time(r.Intn(6))),
					cs(string(rune('a'+r.Intn(2)))), cs(string(rune('x'+r.Intn(2))))))
			}
			return c
		}
		a, b := mk(), mk()
		d := Diff(a, b)
		for tp := interval.Time(0); tp < 20; tp++ {
			sa, sb, sd := a.Snapshot(tp), b.Snapshot(tp), d.Snapshot(tp)
			for _, f := range sa.Facts() {
				want := !sb.Contains(f)
				if got := sd.Contains(f); got != want {
					t.Fatalf("diff wrong at %v for %v: got %v want %v\na:\n%s\nb:\n%s", tp, f, got, want, a, b)
				}
			}
			if sd.Len() > sa.Len() {
				t.Fatal("diff invented facts")
			}
		}
	}
}
