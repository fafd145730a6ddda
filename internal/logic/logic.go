// Package logic implements conjunctions of atomic formulas and the
// homomorphism search engine used throughout temporal data exchange: a
// chase step fires on a homomorphism from the left-hand side of a
// dependency to an instance (paper §2, §4.3), normalization enumerates
// homomorphisms from the renamed conjunctions N(Φ+) (Algorithm 1), and
// naïve query evaluation finds all homomorphisms from a query body (§5).
//
// A homomorphism here maps variables to database values such that every
// atom's image is a stored tuple; it is the identity on literals. Nulls
// are treated as plain values (naïve-table semantics): a null matches
// only itself.
//
// Internally the engine never touches value.Value on the search path: a
// conjunction is compiled against the store into an ID plan — variables
// become dense slots, literals become interned value.IDs (a literal the
// store has never interned cannot match anything, so compilation ends the
// search immediately), and each atom binds to its relation's ID columns.
// Candidate rows come from sorted posting lists (intersected when two or
// more positions are determined), and unification reads the columns
// directly — cols[pos][row] — comparing uint32s with no per-row
// materialization. ForEachIDs exposes that representation directly for
// hot callers (the chase's egd loop, normalization); ForEach/FindAll
// materialize value.Value bindings per match.
package logic

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/storage"
	"repro/internal/value"
)

// Term is a variable or a literal value in an atom.
type Term struct {
	IsVar bool
	Name  string      // variable name when IsVar
	Val   value.Value // literal otherwise
}

// Var returns a variable term.
func Var(name string) Term { return Term{IsVar: true, Name: name} }

// Lit returns a literal term.
func Lit(v value.Value) Term { return Term{Val: v} }

// Const returns a literal constant term — shorthand for Lit(NewConst(s)).
func Const(s string) Term { return Lit(value.NewConst(s)) }

// String renders the term: variables as ?name, literals via value syntax.
func (t Term) String() string {
	if t.IsVar {
		return "?" + t.Name
	}
	return t.Val.String()
}

// Atom is a relational atom R(t1, ..., tn).
type Atom struct {
	Rel   string
	Terms []Term
}

// NewAtom builds an atom.
func NewAtom(rel string, terms ...Term) Atom { return Atom{Rel: rel, Terms: terms} }

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// Vars returns the variable names occurring in the atom, in order of
// first occurrence.
func (a Atom) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range a.Terms {
		if t.IsVar && !seen[t.Name] {
			seen[t.Name] = true
			out = append(out, t.Name)
		}
	}
	return out
}

// Conjunction is a conjunction of atoms φ = A1 ∧ ... ∧ Ak.
type Conjunction []Atom

// String renders the conjunction with " ∧ " separators.
func (c Conjunction) String() string {
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Vars returns all variable names in order of first occurrence.
func (c Conjunction) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range c {
		for _, t := range a.Terms {
			if t.IsVar && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
	}
	return out
}

// HasVar reports whether the named variable occurs in the conjunction.
func (c Conjunction) HasVar(name string) bool {
	for _, a := range c {
		for _, t := range a.Terms {
			if t.IsVar && t.Name == name {
				return true
			}
		}
	}
	return false
}

// RenameTemporal returns a copy of the conjunction where each occurrence
// of the temporal variable tvar is replaced by a fresh variable unique to
// its atom: the paper's N(Φ+) construction (§4.2, Example 9). The fresh
// variables are named tvar#0, tvar#1, ... per atom index.
func (c Conjunction) RenameTemporal(tvar string) Conjunction {
	out := make(Conjunction, len(c))
	for i, a := range c {
		na := Atom{Rel: a.Rel, Terms: make([]Term, len(a.Terms))}
		for j, t := range a.Terms {
			if t.IsVar && t.Name == tvar {
				na.Terms[j] = Var(fmt.Sprintf("%s#%d", tvar, i))
			} else {
				na.Terms[j] = t
			}
		}
		out[i] = na
	}
	return out
}

// Binding maps variable names to values. It plays the role of a
// homomorphism restricted to the variables of a formula.
type Binding map[string]value.Value

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Apply maps a term to its value under the binding; ok=false when the
// term is an unbound variable.
func (b Binding) Apply(t Term) (value.Value, bool) {
	if !t.IsVar {
		return t.Val, true
	}
	v, ok := b[t.Name]
	return v, ok
}

// RowRef identifies a stored tuple: relation name and row number.
type RowRef struct {
	Rel string
	Row int
}

// Match is one homomorphism from a conjunction into a store: the variable
// binding plus, per atom (in conjunction order), the row its image landed
// on. The Rows witness is what Algorithm 1's set-building step consumes
// (h : φ* ↦ {f1, ..., fn}). The Binding passed to a ForEach callback is
// freshly built per match and safe to retain; Rows is transient and must
// be cloned if retained.
type Match struct {
	Binding Binding
	Rows    []RowRef
}

// IDMatch is the interned view of one homomorphism, handed to ForEachIDs
// callbacks: the per-atom row witnesses plus the variable bindings as
// value.IDs of the searched store's interner. It is transient — callers
// must copy anything they retain — and only exposes variables that occur
// in the conjunction.
type IDMatch struct {
	Rows  []RowRef
	names []string
	bind  []value.ID
}

// ID returns the bound ID of the named conjunction variable.
func (m *IDMatch) ID(name string) (value.ID, bool) {
	for i, n := range m.names {
		if n == name {
			return m.bind[i], true
		}
	}
	return value.NoID, false
}

// planTerm is one compiled atom position: a variable slot, or an
// interned literal.
type planTerm struct {
	slot int      // variable slot when >= 0
	lit  value.ID // literal ID when slot < 0
}

// planAtom is an atom compiled against a store: the relation and its
// columns snapshotted for direct indexing — unification reads
// cols[pos][row] without materializing a row. A relation has one arity
// (storage fixes it at the first row; instance.Concrete.CheckRel rejects
// facts of another), so an atom of any other arity matches nothing and
// compiles to an empty plan. order lists the term positions with literals
// first, so a candidate row is rejected before any variable column is
// touched. dense records that the relation has no dead rows, so a scan
// skips the liveness check (posting lists hold live rows only); buf is
// the atom's posting-intersection scratch (safe per atom: the search uses
// each atom at one depth at a time).
// epoch is the relation's mutation epoch at compile time: the column
// snapshots are valid only while it holds, and the search revalidates it
// after every match callback (the only point user code runs). frozen
// relations cannot mutate at all, so their atoms skip revalidation —
// that, plus every buffer being plan-local, is what lets any number of
// goroutines run plans over one frozen store concurrently.
type planAtom struct {
	rel    *storage.Rel
	cols   [][]value.ID
	terms  []planTerm
	order  []int
	dense  bool
	frozen bool
	epoch  uint64
	buf    []int
}

// plan is a conjunction compiled against a store: atoms over variable
// slots and literal IDs, plus the initial slot bindings.
type plan struct {
	atoms   []planAtom
	names   []string   // slot → variable name
	init    []value.ID // initial binding per slot; NoID when unbound
	extras  Binding    // initial bindings for variables not in the conjunction
	empty   bool       // no homomorphism can exist (missing relation or never-interned value)
	mutable bool       // some atom's relation is not frozen: revalidate epochs
}

// compile builds the ID plan for conj over st. Literals and initial
// bindings are looked up (not interned): a value the store has never
// interned cannot occur in any stored row, so its atom — and therefore
// the conjunction — has no homomorphism, and the plan is marked empty.
func compile(st *storage.Store, conj Conjunction, initial Binding) plan {
	var p plan
	in := st.Interner()
	slotOf := make(map[string]int)
	p.atoms = make([]planAtom, 0, len(conj))
	for _, a := range conj {
		rel := st.Rel(a.Rel)
		if rel == nil {
			p.empty = true
			return p
		}
		if rel.Arity() != len(a.Terms) {
			// No stored row has the atom's arity, so nothing can match.
			p.empty = true
			return p
		}
		pa := planAtom{rel: rel, cols: rel.Cols(), terms: make([]planTerm, len(a.Terms)), dense: rel.Len() == rel.NumRows(), frozen: rel.Frozen(), epoch: rel.Epoch()}
		if !pa.frozen {
			p.mutable = true
		}
		for j, t := range a.Terms {
			if t.IsVar {
				s, ok := slotOf[t.Name]
				if !ok {
					s = len(p.names)
					slotOf[t.Name] = s
					p.names = append(p.names, t.Name)
				}
				pa.terms[j] = planTerm{slot: s}
			} else {
				id, ok := in.Lookup(t.Val)
				if !ok {
					p.empty = true
					return p
				}
				pa.terms[j] = planTerm{slot: -1, lit: id}
			}
		}
		pa.order = make([]int, 0, len(pa.terms))
		for j, t := range pa.terms {
			if t.slot < 0 {
				pa.order = append(pa.order, j)
			}
		}
		for j, t := range pa.terms {
			if t.slot >= 0 {
				pa.order = append(pa.order, j)
			}
		}
		p.atoms = append(p.atoms, pa)
	}
	p.init = make([]value.ID, len(p.names))
	for i := range p.init {
		p.init[i] = value.NoID
	}
	for name, v := range initial {
		s, inConj := slotOf[name]
		if !inConj {
			if p.extras == nil {
				p.extras = Binding{}
			}
			p.extras[name] = v
			continue
		}
		id, ok := in.Lookup(v)
		if !ok {
			p.empty = true
			return p
		}
		p.init[s] = id
	}
	return p
}

// revalidate panics when any relation a plan was compiled against has
// been mutated since compile time: the plan's column snapshots (and the
// posting lists feeding it) would silently describe a stale store. It is
// called after every match callback — the only point during enumeration
// where caller code runs. Frozen relations cannot be mutated, so their
// atoms are exempt (and a fully frozen plan skips the pass entirely —
// reading another goroutine's epoch would be both racy and pointless).
func (p *plan) revalidate() {
	if !p.mutable {
		return
	}
	for i := range p.atoms {
		pa := &p.atoms[i]
		if pa.frozen {
			continue
		}
		if e := pa.rel.Epoch(); e != pa.epoch {
			panic(fmt.Sprintf(
				"logic: relation %q mutated during plan enumeration (epoch %d -> %d): a store must not be written while a compiled plan runs over it; collect matches first, or write to a different store",
				pa.rel.Name(), pa.epoch, e))
		}
	}
}

// candidates returns the candidate rows of pa worth testing under the
// current bindings: when two or more positions are determined (bound
// variable or literal), the intersection of the two smallest posting
// lists — computed into buf, which is reused across calls at the same
// search depth — otherwise the single available list. scan is true when
// no position is determined and the caller must scan the whole relation.
func candidates(pa *planAtom, bind []value.ID, buf []int) (cands []int, scan bool, out []int) {
	var best, second []int
	bestLen, secondLen := -1, -1
	for pos, t := range pa.terms {
		var id value.ID
		switch {
		case t.slot < 0:
			id = t.lit
		case bind[t.slot] != value.NoID:
			id = bind[t.slot]
		default:
			continue
		}
		list := pa.rel.CandidatesID(pos, id)
		n := len(list)
		if n == 0 {
			return nil, false, buf
		}
		switch {
		case bestLen < 0 || n < bestLen:
			second, secondLen = best, bestLen
			best, bestLen = list, n
		case secondLen < 0 || n < secondLen:
			second, secondLen = list, n
		}
	}
	if bestLen < 0 {
		return nil, true, buf
	}
	// Intersecting pays once the smallest list is non-trivial; below that
	// the per-row column check is cheaper than the merge.
	if secondLen < 0 || bestLen <= 8 {
		return best, false, buf
	}
	buf = storage.IntersectPostings(buf, best, second)
	return buf, false, buf
}

// run enumerates the plan's homomorphisms, invoking fn per match and
// stopping early when fn returns false.
func run(p plan, fn func(*IDMatch) bool) {
	n := len(p.atoms)
	bind := append([]value.ID(nil), p.init...)
	rows := make([]RowRef, n)
	done := make([]bool, n)
	var trail []int // slots bound since the search started, in order
	im := IDMatch{names: p.names}
	var rec func(depth int) bool
	rec = func(depth int) bool {
		if depth == n {
			im.Rows = rows
			im.bind = bind
			cont := fn(&im)
			p.revalidate()
			return cont
		}
		// Adaptive join order: the unprocessed atom with the smallest
		// estimated candidate set — the minimum posting-list length over
		// its determined positions (bound variable or literal), O(1) per
		// read on the materialized posting lists. An atom with no
		// determined position is estimated at its full row count (a
		// scan). An empty posting list estimates to 0, so a contradicted
		// atom is picked first and fails the branch immediately. Ties keep
		// the lowest atom index, so the order stays deterministic.
		bestAtom := -1
		bestEst := int(^uint(0) >> 1)
		for i := range p.atoms {
			if done[i] {
				continue
			}
			cand := &p.atoms[i]
			est := cand.rel.NumRows()
			for pos, t := range cand.terms {
				var id value.ID
				switch {
				case t.slot < 0:
					id = t.lit
				case bind[t.slot] != value.NoID:
					id = bind[t.slot]
				default:
					continue
				}
				if l := len(cand.rel.CandidatesID(pos, id)); l < est {
					est = l
				}
			}
			if est < bestEst {
				bestEst, bestAtom = est, i
			}
		}
		pa := &p.atoms[bestAtom]
		done[bestAtom] = true
		cont := true
		cands, scan, buf := candidates(pa, bind, pa.buf)
		pa.buf = buf
		limit := len(cands)
		if scan {
			limit = pa.rel.NumRows()
		}
	rowLoop:
		for k := 0; k < limit; k++ {
			row := k
			if !scan {
				row = cands[k]
			} else if !pa.dense && !pa.rel.Alive(row) {
				continue
			}
			base := len(trail)
			ok := true
			for _, j := range pa.order {
				t := pa.terms[j]
				got := pa.cols[j][row]
				if t.slot < 0 {
					if t.lit != got {
						ok = false
						break
					}
					continue
				}
				if b := bind[t.slot]; b != value.NoID {
					if b != got {
						ok = false
						break
					}
					continue
				}
				bind[t.slot] = got
				trail = append(trail, t.slot)
			}
			if ok {
				rows[bestAtom] = RowRef{Rel: pa.rel.Name(), Row: row}
				if !rec(depth + 1) {
					cont = false
				}
			}
			for _, s := range trail[base:] {
				bind[s] = value.NoID
			}
			trail = trail[:base]
			if !cont {
				break rowLoop
			}
		}
		done[bestAtom] = false
		return cont
	}
	rec(0)
}

// ForEachIDs enumerates homomorphisms in interned form: bindings are
// value.IDs of st's interner and no value.Value is materialized. This is
// the hot-path entry used by the chase's egd loop and by normalization;
// use ForEach when you need the bindings as values. The IDMatch passed to
// fn is transient. Initial bindings for variables outside the conjunction
// are not visible through the IDMatch (use ForEach for those).
func ForEachIDs(st *storage.Store, conj Conjunction, initial Binding, fn func(*IDMatch) bool) {
	if len(conj) == 0 {
		// The empty conjunction has exactly one (empty) homomorphism.
		fn(&IDMatch{})
		return
	}
	p := compile(st, conj, initial)
	if p.empty {
		return
	}
	run(p, fn)
}

// ForEach enumerates homomorphisms from the conjunction into the store,
// starting from the initial binding (which may pre-bind variables; pass
// nil for none). It invokes fn for each match and stops early when fn
// returns false. The Binding handed to fn is freshly built per match and
// safe to retain; Rows is transient and must be cloned if retained. Atom
// order in Rows follows the conjunction, regardless of the join order
// chosen internally.
func ForEach(st *storage.Store, conj Conjunction, initial Binding, fn func(Match) bool) {
	if len(conj) == 0 {
		// Clone so the returned Binding honors the safe-to-retain
		// contract (Clone of a nil Binding is an empty one).
		fn(Match{Binding: initial.Clone()})
		return
	}
	p := compile(st, conj, initial)
	if p.empty {
		return
	}
	in := st.Interner()
	var vals []value.Value
	run(p, func(im *IDMatch) bool {
		b := make(Binding, len(p.names)+len(p.extras))
		for k, v := range p.extras {
			b[k] = v
		}
		vals = in.ResolveAll(vals[:0], im.bind)
		for i, name := range p.names {
			b[name] = vals[i]
		}
		return fn(Match{Binding: b, Rows: im.Rows})
	})
}

// FindAll materializes every homomorphism. Bindings and row witnesses are
// safe to retain.
func FindAll(st *storage.Store, conj Conjunction, initial Binding) []Match {
	var out []Match
	ForEach(st, conj, initial, func(m Match) bool {
		out = append(out, Match{
			Binding: m.Binding,
			Rows:    append([]RowRef(nil), m.Rows...),
		})
		return true
	})
	return out
}

// FindOne returns some homomorphism, or ok=false when none exists.
func FindOne(st *storage.Store, conj Conjunction, initial Binding) (Match, bool) {
	var got Match
	found := false
	ForEach(st, conj, initial, func(m Match) bool {
		got = Match{Binding: m.Binding, Rows: append([]RowRef(nil), m.Rows...)}
		found = true
		return false
	})
	return got, found
}

// Exists reports whether at least one homomorphism exists.
func Exists(st *storage.Store, conj Conjunction, initial Binding) bool {
	found := false
	ForEachIDs(st, conj, initial, func(*IDMatch) bool {
		found = true
		return false
	})
	return found
}

// ExistsIDs is Exists seeded with interned bindings: vars[i] starts
// bound to ids[i], an ID of st's interner. Variables outside conj are
// ignored.
func ExistsIDs(st *storage.Store, conj Conjunction, vars []string, ids []value.ID) bool {
	p := compile(st, conj, nil)
	if p.empty {
		return false
	}
	for i, name := range vars {
		if s := slices.Index(p.names, name); s >= 0 {
			p.init[s] = ids[i]
		}
	}
	found := false
	run(p, func(*IDMatch) bool {
		found = true
		return false
	})
	return found
}

// SortMatches orders matches deterministically by their bindings, for
// stable output in tools and tests.
func SortMatches(ms []Match, vars []string) {
	sort.Slice(ms, func(i, j int) bool {
		for _, v := range vars {
			a, okA := ms[i].Binding[v]
			bb, okB := ms[j].Binding[v]
			if !okA || !okB {
				continue
			}
			if c := value.Compare(a, bb); c != 0 {
				return c < 0
			}
		}
		return false
	})
}
