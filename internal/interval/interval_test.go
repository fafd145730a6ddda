package interval

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	tests := []struct {
		name    string
		s, e    Time
		wantErr bool
	}{
		{"basic", 1, 5, false},
		{"point-width", 3, 4, false},
		{"unbounded", 7, Infinity, false},
		{"empty", 5, 5, true},
		{"inverted", 6, 2, true},
		{"start-infinity", Infinity, Infinity, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			iv, err := New(tt.s, tt.e)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%v,%v) err=%v wantErr=%v", tt.s, tt.e, err, tt.wantErr)
			}
			if err == nil && (!iv.Valid() || iv.Start != tt.s || iv.End != tt.e) {
				t.Fatalf("New(%v,%v)=%v, invalid", tt.s, tt.e, iv)
			}
		})
	}
}

// TestSortedCutsMatchComparatorReference checks Endpoints and Fragment,
// which sort with slices.Sort, against references sorting with the
// sort.Slice comparator they used before, on random cut sets with
// repeats and Infinity.
func TestSortedCutsMatchComparatorReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	randTime := func() Time {
		if r.Intn(10) == 0 {
			return Infinity
		}
		return Time(r.Intn(30))
	}
	sortDedup := func(ts []Time) []Time {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		out := ts[:0]
		for i, t := range ts {
			if i == 0 || t != ts[i-1] {
				out = append(out, t)
			}
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		ivs := make([]Interval, r.Intn(12))
		var flat []Time
		for i := range ivs {
			s := Time(r.Intn(29))
			e := randTime()
			if e <= s {
				e = s + 1
			}
			ivs[i] = Interval{s, e}
			flat = append(flat, s, e)
		}
		want := sortDedup(flat)
		if len(want) == 0 {
			want = nil
		}
		if got := Endpoints(ivs); !reflect.DeepEqual(got, want) {
			t.Fatalf("Endpoints(%v) = %v, want %v", ivs, got, want)
		}

		cuts := make([]Time, r.Intn(16))
		for i := range cuts {
			cuts[i] = randTime()
		}
		iv := Interval{Time(r.Intn(15)), Time(15 + r.Intn(15))}
		var inside []Time
		for _, c := range cuts {
			if iv.Start < c && c < iv.End {
				inside = append(inside, c)
			}
		}
		wantFr := []Interval{}
		prev := iv.Start
		for _, c := range sortDedup(inside) {
			wantFr = append(wantFr, Interval{prev, c})
			prev = c
		}
		wantFr = append(wantFr, Interval{prev, iv.End})
		if got := iv.Fragment(cuts); !reflect.DeepEqual(got, wantFr) {
			t.Fatalf("%v.Fragment(%v) = %v, want %v", iv, cuts, got, wantFr)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(5,2) did not panic")
		}
	}()
	MustNew(5, 2)
}

func TestPoint(t *testing.T) {
	p := Point(2013)
	if !p.Contains(2013) || p.Contains(2012) || p.Contains(2014) {
		t.Fatalf("Point(2013)=%v covers the wrong points", p)
	}
	if n, ok := p.Len(); !ok || n != 1 {
		t.Fatalf("Point length = %d,%v want 1,true", n, ok)
	}
}

func TestContains(t *testing.T) {
	iv := MustNew(2012, 2014)
	for _, tt := range []struct {
		t    Time
		want bool
	}{{2011, false}, {2012, true}, {2013, true}, {2014, false}, {Infinity, false}} {
		if got := iv.Contains(tt.t); got != tt.want {
			t.Errorf("%v.Contains(%v)=%v want %v", iv, tt.t, got, tt.want)
		}
	}
	unb := MustNew(2014, Infinity)
	if !unb.Contains(1 << 40) {
		t.Errorf("%v should contain very large time points", unb)
	}
	if unb.Contains(Infinity) {
		t.Errorf("%v must not contain Infinity itself (half-open)", unb)
	}
}

func TestOverlapsAdjacent(t *testing.T) {
	tests := []struct {
		a, b              Interval
		overlap, adjacent bool
	}{
		{MustNew(1, 3), MustNew(3, 5), false, true},
		{MustNew(3, 5), MustNew(1, 3), false, true},
		{MustNew(1, 4), MustNew(3, 5), true, false},
		{MustNew(1, 10), MustNew(3, 5), true, false},
		{MustNew(1, 2), MustNew(5, 6), false, false},
		{MustNew(1, 5), MustNew(1, 5), true, false},
		{MustNew(1, Infinity), MustNew(100, 200), true, false},
	}
	for _, tt := range tests {
		if got := tt.a.Overlaps(tt.b); got != tt.overlap {
			t.Errorf("%v.Overlaps(%v)=%v want %v", tt.a, tt.b, got, tt.overlap)
		}
		if got := tt.b.Overlaps(tt.a); got != tt.overlap {
			t.Errorf("Overlaps not symmetric for %v,%v", tt.a, tt.b)
		}
		if got := tt.a.Adjacent(tt.b); got != tt.adjacent {
			t.Errorf("%v.Adjacent(%v)=%v want %v", tt.a, tt.b, got, tt.adjacent)
		}
	}
}

func TestIntersect(t *testing.T) {
	a := MustNew(2012, 2015)
	b := MustNew(2013, Infinity)
	got, ok := a.Intersect(b)
	if !ok || got != MustNew(2013, 2015) {
		t.Fatalf("Intersect=%v,%v want [2013,2015),true", got, ok)
	}
	if _, ok := MustNew(1, 3).Intersect(MustNew(3, 5)); ok {
		t.Fatal("adjacent intervals must not intersect")
	}
}

func TestUnion(t *testing.T) {
	if got, ok := MustNew(1, 3).Union(MustNew(3, 5)); !ok || got != MustNew(1, 5) {
		t.Fatalf("adjacent union = %v,%v", got, ok)
	}
	if got, ok := MustNew(1, 4).Union(MustNew(2, 9)); !ok || got != MustNew(1, 9) {
		t.Fatalf("overlapping union = %v,%v", got, ok)
	}
	if _, ok := MustNew(1, 2).Union(MustNew(4, 5)); ok {
		t.Fatal("disjoint non-adjacent union must fail")
	}
}

func TestParseRoundTrip(t *testing.T) {
	tests := []struct {
		in   string
		want Interval
		err  bool
	}{
		{"[2012,2014)", MustNew(2012, 2014), false},
		{"[2014, inf)", MustNew(2014, Infinity), false},
		{"[ 0 , 1 )", MustNew(0, 1), false},
		{"[5,5)", Interval{}, true},
		{"[5,2)", Interval{}, true},
		{"(5,8)", Interval{}, true},
		{"[5,8]", Interval{}, true},
		{"[5)", Interval{}, true},
		{"[a,b)", Interval{}, true},
		{"", Interval{}, true},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if (err != nil) != tt.err {
			t.Errorf("Parse(%q) err=%v wantErr=%v", tt.in, err, tt.err)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("Parse(%q)=%v want %v", tt.in, got, tt.want)
		}
		if err == nil {
			back, err2 := Parse(got.String())
			if err2 != nil || back != got {
				t.Errorf("round trip failed for %v: %v %v", got, back, err2)
			}
		}
	}
}

func TestSplitAt(t *testing.T) {
	iv := MustNew(5, 11)
	l, r, ok := iv.SplitAt(8)
	if !ok || l != MustNew(5, 8) || r != MustNew(8, 11) {
		t.Fatalf("SplitAt(8)=%v,%v,%v", l, r, ok)
	}
	for _, bad := range []Time{5, 11, 4, 12} {
		if _, _, ok := iv.SplitAt(bad); ok {
			t.Errorf("SplitAt(%v) should fail", bad)
		}
	}
}

func TestFragment(t *testing.T) {
	// The paper's Example 14: f1 = R(a, [5,11)) fragmented on the endpoint
	// sequence <5,7,8,10,11,15> yields [5,7) [7,8) [8,10) [10,11).
	iv := MustNew(5, 11)
	got := iv.Fragment([]Time{5, 7, 8, 10, 11, 15})
	want := []Interval{MustNew(5, 7), MustNew(7, 8), MustNew(8, 10), MustNew(10, 11)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Fragment=%v want %v", got, want)
	}
	// No interior cuts: the interval comes back whole.
	if got := iv.Fragment([]Time{1, 5, 11, 20}); !reflect.DeepEqual(got, []Interval{iv}) {
		t.Fatalf("Fragment with no interior cuts = %v", got)
	}
	// Unsorted, duplicated cuts are tolerated.
	if got := iv.Fragment([]Time{9, 6, 9, 6}); len(got) != 3 {
		t.Fatalf("Fragment with dup cuts = %v", got)
	}
}

func TestEndpoints(t *testing.T) {
	got := Endpoints([]Interval{MustNew(5, 11), MustNew(8, 15), MustNew(7, 10)})
	want := []Time{5, 7, 8, 10, 11, 15}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Endpoints=%v want %v", got, want)
	}
	if Endpoints(nil) != nil {
		t.Fatal("Endpoints(nil) should be nil")
	}
}

func TestCommonIntersectionAndAllEqual(t *testing.T) {
	ivs := []Interval{MustNew(5, 11), MustNew(8, 15), MustNew(7, 10)}
	got, ok := CommonIntersection(ivs)
	if !ok || got != MustNew(8, 10) {
		t.Fatalf("CommonIntersection=%v,%v", got, ok)
	}
	if _, ok := CommonIntersection([]Interval{MustNew(1, 2), MustNew(3, 4)}); ok {
		t.Fatal("disjoint intersection should be empty")
	}
	if _, ok := CommonIntersection(nil); ok {
		t.Fatal("empty input should not intersect")
	}
	if !AllEqual([]Interval{MustNew(1, 2), MustNew(1, 2)}) {
		t.Fatal("AllEqual on equal intervals")
	}
	if AllEqual([]Interval{MustNew(1, 2), MustNew(1, 3)}) {
		t.Fatal("AllEqual on different intervals")
	}
	if AllEqual(nil) {
		t.Fatal("AllEqual(nil) must be false")
	}
}

func TestCompare(t *testing.T) {
	a, b := MustNew(1, 5), MustNew(1, 7)
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatal("Compare ordering broken on shared start")
	}
	c := MustNew(2, 3)
	if a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Fatal("Compare ordering broken on start")
	}
}

// randomInterval builds a valid interval from two arbitrary uint64 seeds,
// occasionally unbounded.
func randomInterval(r *rand.Rand, maxT Time) Interval {
	s := Time(r.Uint64() % uint64(maxT))
	if r.Intn(8) == 0 {
		return Interval{Start: s, End: Infinity}
	}
	e := s + 1 + Time(r.Uint64()%uint64(maxT))
	return Interval{Start: s, End: e}
}

func TestQuickIntersectSound(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 2000, Rand: r, Values: func(vs []reflect.Value, r *rand.Rand) {
		vs[0] = reflect.ValueOf(randomInterval(r, 50))
		vs[1] = reflect.ValueOf(randomInterval(r, 50))
		vs[2] = reflect.ValueOf(Time(r.Uint64() % 120))
	}}
	// t in (a ∩ b) iff t in a and t in b.
	prop := func(a, b Interval, tp Time) bool {
		x, ok := a.Intersect(b)
		inBoth := a.Contains(tp) && b.Contains(tp)
		if !ok {
			return !inBoth || !a.Overlaps(b)
		}
		return x.Contains(tp) == inBoth
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cfg := &quick.Config{MaxCount: 2000, Rand: r, Values: func(vs []reflect.Value, r *rand.Rand) {
		vs[0] = reflect.ValueOf(randomInterval(r, 40))
		vs[1] = reflect.ValueOf(randomInterval(r, 40))
	}}
	// Overlaps ⟺ Intersect succeeds; Adjacent ⇒ not Overlaps.
	prop := func(a, b Interval) bool {
		_, ok := a.Intersect(b)
		if ok != a.Overlaps(b) {
			return false
		}
		if a.Adjacent(b) && a.Overlaps(b) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFragmentCoverage(t *testing.T) {
	// Fragmentation preserves point membership and produces consecutive,
	// disjoint pieces.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		iv := randomInterval(r, 30)
		cuts := make([]Time, r.Intn(6))
		for j := range cuts {
			cuts[j] = Time(r.Uint64() % 80)
		}
		frags := iv.Fragment(cuts)
		prev := iv.Start
		for _, f := range frags {
			if f.Start != prev {
				t.Fatalf("gap in fragments of %v on %v: %v", iv, cuts, frags)
			}
			if !f.Valid() {
				t.Fatalf("invalid fragment %v", f)
			}
			prev = f.End
		}
		if prev != iv.End {
			t.Fatalf("fragments of %v on %v do not cover: %v", iv, cuts, frags)
		}
	}
}

func TestQuickParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		iv := randomInterval(r, 1000)
		back, err := Parse(iv.String())
		if err != nil || back != iv {
			t.Fatalf("round trip %v -> %v (%v)", iv, back, err)
		}
	}
}
