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
// hot callers (the chase's tgd and egd loops, query evaluation);
// ForEach/FindAll materialize value.Value bindings per match.
//
// Algorithm 1 (line 3) and Definition 10 act only on matches whose
// facts' intervals share a time point, but N(Φ+) renames each atom's
// temporal variable apart, so the join alone cannot tell those from the
// rest. ForEachIDsOverlapping and ForEachIDsDeltaOverlapping, the entries
// normalization enumerates through, carry the intersection of the bound
// rows' intervals (each row's last column) down the search and reject a
// candidate row that empties it before descending: a match with an empty
// intersection is never completed. The join order depends on the
// bindings alone, so the surviving matches come in the order the
// unpruned entries yield them.
package logic

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/instance"
	"repro/internal/interval"
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
// each atom at one depth at a time), and done marks the atom bound at a
// depth above the current one. In a full overlap enumeration intervals
// caches the relation's interval column by row, each decoded on first
// use (the zero interval, never stored, marks a row not yet decoded) and
// shared by the atoms over one relation: a self-join resolves each row's
// interval once, not once per candidate pair.
// epoch is the relation's mutation epoch at compile time: the column
// snapshots are valid only while it holds, and the search revalidates it
// after every match callback (the only point user code runs). frozen
// relations cannot mutate at all, so their atoms skip revalidation —
// that, plus every buffer being plan-local, is what lets any number of
// goroutines run plans over one frozen store concurrently.
type planAtom struct {
	rel       *storage.Rel
	cols      [][]value.ID
	terms     []planTerm
	order     []int
	dense     bool
	frozen    bool
	epoch     uint64
	buf       []int
	done      bool
	intervals []interval.Interval
}

// plan is a conjunction compiled against a store: atoms over variable
// slots and literal IDs, plus the initial slot bindings. It also owns
// the search's scratch (bindings, row witnesses, the running interval
// intersection, the match handed to callbacks), which every run starts
// from init, so one plan runs sweep after sweep without allocating (the
// delta enumeration reruns a residual plan once per delta row), but
// never two sweeps at once. The match handed to callbacks escapes to
// the heap; nothing else takes the plan's address, so a plan stays on
// its caller's stack.
type plan struct {
	atoms   []planAtom
	names   []string   // slot → variable name
	init    []value.ID // initial binding per slot; NoID when unbound
	extras  Binding    // initial bindings for variables not in the conjunction
	empty   bool       // no homomorphism can exist (missing relation or never-interned value)
	mutable bool       // some atom's relation is not frozen: revalidate epochs
	// overlap restricts the search to Algorithm 1's match sets: a
	// candidate row whose interval (its last column) empties the
	// intersection of the intervals bound so far is rejected before the
	// search descends, and counted by a call to pruned.
	overlap bool
	pruned  func() bool

	bind  []value.ID
	rows  []RowRef
	trail []int               // slots bound since the sweep started, in order
	acc   []interval.Interval // acc[d]: intersection of the intervals bound above depth d
	im    *IDMatch
}

// compile builds into the zero plan p the ID plan for conj over st.
// Literals and initial bindings are looked up (not interned): a value
// the store has never interned cannot occur in any stored row, so its
// atom — and therefore the conjunction — has no homomorphism, and the
// plan is marked empty.
func compile(p *plan, st *storage.Store, conj Conjunction, initial Binding) {
	in := st.Interner()
	slotOf := make(map[string]int)
	p.atoms = make([]planAtom, 0, len(conj))
	for _, a := range conj {
		rel := st.Rel(a.Rel)
		if rel == nil {
			p.empty = true
			return
		}
		if rel.Arity() != len(a.Terms) {
			// No stored row has the atom's arity, so nothing can match.
			p.empty = true
			return
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
					return
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
	// init and bind share one allocation.
	n := len(p.names)
	ids := make([]value.ID, 2*n)
	p.init, p.bind = ids[:n:n], ids[n:]
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
			return
		}
		p.init[s] = id
	}
	p.rows = make([]RowRef, len(p.atoms))
	p.im = &IDMatch{names: p.names}
}

// pruneDisjoint turns p into an overlap plan whose sweeps report each
// rejected row to pruned (nil: nobody counts them). Each sweep's running
// intersection starts at acc[0], which the caller sets.
func (p *plan) pruneDisjoint(pruned func() bool) {
	p.overlap = true
	p.pruned = pruned
	p.acc = make([]interval.Interval, len(p.atoms)+1)
}

// cacheIntervals gives each atom of an overlap plan its relation's
// interval cache (planAtom.intervals). A cache costs a word pair per row
// of the relation, so only a full enumeration, which may touch every
// row, keeps one; a delta sweep reads a handful of rows per delta row.
func (p *plan) cacheIntervals() {
	for i := range p.atoms {
		pa := &p.atoms[i]
		for j := range p.atoms[:i] {
			if p.atoms[j].rel == pa.rel {
				pa.intervals = p.atoms[j].intervals
				break
			}
		}
		if pa.intervals == nil {
			pa.intervals = make([]interval.Interval, pa.rel.NumRows())
		}
	}
}

// rowInterval returns the interval of pa's row, through the atom's cache
// when it has one.
func rowInterval(pa *planAtom, row int) interval.Interval {
	if pa.intervals == nil {
		return instance.IntervalAt(pa.rel, row)
	}
	iv := pa.intervals[row]
	if iv.End == 0 {
		iv = instance.IntervalAt(pa.rel, row)
		pa.intervals[row] = iv
	}
	return iv
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

// run enumerates the plan's homomorphisms from its init bindings,
// invoking fn per match, and reports whether the sweep ran to its end:
// it stops early when fn returns false, or pruned in an overlap plan.
func (p *plan) run(fn func(*IDMatch) bool) bool {
	copy(p.bind, p.init)
	return p.search(0, fn)
}

// search binds the atoms not yet done, one per depth, and reports
// whether the sweep goes on.
func (p *plan) search(depth int, fn func(*IDMatch) bool) bool {
	if depth == len(p.atoms) {
		p.im.Rows = p.rows
		p.im.bind = p.bind
		cont := fn(p.im)
		p.revalidate()
		return cont
	}
	bind := p.bind
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
		cand := &p.atoms[i]
		if cand.done {
			continue
		}
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
	pa.done = true
	cont := true
	cands, scan, buf := candidates(pa, bind, pa.buf)
	pa.buf = buf
	limit := len(cands)
	if scan {
		limit = pa.rel.NumRows()
	}
	for k := 0; k < limit && cont; k++ {
		row := k
		if !scan {
			row = cands[k]
		} else if !pa.dense && !pa.rel.Alive(row) {
			continue
		}
		base := len(p.trail)
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
			p.trail = append(p.trail, t.slot)
		}
		if ok && p.overlap {
			// The join order depends on the bindings alone, so rejecting
			// a row here leaves the surviving matches in their order.
			if p.acc[depth+1], ok = p.acc[depth].Intersect(rowInterval(pa, row)); !ok && p.pruned != nil {
				cont = p.pruned()
			}
		}
		if ok {
			p.rows[bestAtom] = RowRef{Rel: pa.rel.Name(), Row: row}
			cont = p.search(depth+1, fn)
		}
		for _, s := range p.trail[base:] {
			bind[s] = value.NoID
		}
		p.trail = p.trail[:base]
	}
	pa.done = false
	return cont
}

// ForEachIDs enumerates homomorphisms in interned form: bindings are
// value.IDs of st's interner and no value.Value is materialized. This is
// the hot-path entry of the chase's tgd and egd loops and of query
// evaluation; use ForEach when you need the bindings as values. The
// IDMatch passed to fn is transient. Initial bindings for variables
// outside the conjunction are not visible through the IDMatch (use
// ForEach for those).
func ForEachIDs(st *storage.Store, conj Conjunction, initial Binding, fn func(*IDMatch) bool) {
	if len(conj) == 0 {
		// The empty conjunction has exactly one (empty) homomorphism.
		fn(&IDMatch{})
		return
	}
	var p plan
	compile(&p, st, conj, initial)
	if p.empty {
		return
	}
	p.run(fn)
}

// ForEachIDsOverlapping is ForEachIDs, with no initial bindings, kept to
// the homomorphisms Algorithm 1 acts on: those whose witness rows'
// intervals (each row's last column, so st must hold a concrete
// instance) have a non-empty common intersection. The search carries
// the intersection of the rows bound so far and rejects a candidate row
// that empties it before descending, so a disjoint match is never
// completed, and the survivors come in ForEachIDs's order. pruned (nil
// for none) is called once per rejected row, and returning false stops
// the enumeration as fn's does: a caller that polls every so many
// matches keeps polling while nothing survives. Normalization is the
// only caller.
func ForEachIDsOverlapping(st *storage.Store, conj Conjunction, fn func(*IDMatch) bool, pruned func() bool) {
	var p plan
	compile(&p, st, conj, nil)
	if p.empty {
		return
	}
	p.pruneDisjoint(pruned)
	p.cacheIntervals()
	p.acc[0] = interval.Interval{End: interval.Infinity} // every time point
	p.run(fn)
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
	var p plan
	compile(&p, st, conj, initial)
	if p.empty {
		return
	}
	in := st.Interner()
	var vals []value.Value
	p.run(func(im *IDMatch) bool {
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
	var p plan
	compile(&p, st, conj, nil)
	if p.empty {
		return false
	}
	for i, name := range vars {
		if s := slices.Index(p.names, name); s >= 0 {
			p.init[s] = ids[i]
		}
	}
	found := false
	p.run(func(*IDMatch) bool {
		found = true
		return false
	})
	return found
}
