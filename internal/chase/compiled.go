package chase

import (
	"fmt"
	"slices"

	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/value"
)

// Compiled is a schema mapping compiled for repeated chase runs: the
// concrete (interval-tailed) bodies and heads of every dependency, the
// existential variables of every tgd, and the egd well-formedness checks
// are derived once, so a long-lived caller — the public tdx.Exchange,
// which serves one mapping to many source instances — pays parsing and
// derivation once instead of per run. A Compiled mapping is immutable
// after construction and safe for concurrent use by any number of chase
// runs.
type Compiled struct {
	m         *dependency.Mapping
	tgds      []compiledTGD
	tgdBodies []logic.Conjunction // concrete tgd bodies: the normalization Φ+ set
	egdBodies []logic.Conjunction // concrete egd bodies: the egd-phase Φ+ set
	egdPlain  []logic.Conjunction // plain egd bodies, scanned by the snapshot chase
}

// compiledTGD caches one tgd's derived forms: the concrete body/head for
// the c-chase, the existential variable list (shared with the snapshot
// chase, whose plain body/head live on d), and the layout the tgd kernel
// builds head rows from (see tgd.go).
type compiledTGD struct {
	d     dependency.TGD
	body  logic.Conjunction // ConcreteBody()
	head  logic.Conjunction // ConcreteHead()
	exist []string
	// vecVars names the slots of a firing vector: the universal data
	// variables of the head in first-occurrence order, then the temporal
	// variable.
	vecVars []string
	// cols gives the source of each stored head position, atoms
	// concatenated: c < len(vecVars) is firing-vector slot c, a larger c
	// existential c-len(vecVars), and c < 0 the literal lits[-1-c].
	cols []int
	lits []value.Value
	// plainLits reports that every literal is a constant or a labeled
	// null, which fact.NewC and Validate leave as they are.
	plainLits bool
}

// CompileMapping derives the reusable chase artifacts of a mapping. It
// rejects malformed egds (an equated variable missing from the body
// would bind to no value) up front, so runs never re-validate. The
// mapping itself is not schema-validated here — use
// dependency.Mapping.Validate (or the tdx facade, which does both).
func CompileMapping(m *dependency.Mapping) (*Compiled, error) {
	cm := &Compiled{
		m:         m,
		tgds:      make([]compiledTGD, len(m.TGDs)),
		tgdBodies: make([]logic.Conjunction, len(m.TGDs)),
		egdBodies: make([]logic.Conjunction, len(m.EGDs)),
		egdPlain:  make([]logic.Conjunction, len(m.EGDs)),
	}
	for i, d := range m.TGDs {
		cm.tgds[i] = compiledTGD{
			d:     d,
			body:  d.ConcreteBody(),
			head:  d.ConcreteHead(),
			exist: d.Existentials(),
		}
		ct := &cm.tgds[i]
		for _, v := range ct.head.Vars() {
			if v != dependency.TemporalVar && !slices.Contains(ct.exist, v) {
				ct.vecVars = append(ct.vecVars, v)
			}
		}
		ct.vecVars = append(ct.vecVars, dependency.TemporalVar)
		slots := append(slices.Clone(ct.vecVars), ct.exist...)
		ct.plainLits = true
		for _, atom := range ct.head {
			for _, term := range atom.Terms {
				if term.IsVar {
					ct.cols = append(ct.cols, slices.Index(slots, term.Name))
					continue
				}
				ct.cols = append(ct.cols, -1-len(ct.lits))
				ct.lits = append(ct.lits, term.Val)
				ct.plainLits = ct.plainLits && (term.Val.IsConst() || term.Val.Kind() == value.Null)
			}
		}
		cm.tgdBodies[i] = ct.body
	}
	for i, d := range m.EGDs {
		body := d.ConcreteBody()
		if !body.HasVar(d.X1) || !body.HasVar(d.X2) {
			return nil, fmt.Errorf("chase: egd %s equates %q and %q but its body binds only %v", d.Name, d.X1, d.X2, d.Body.Vars())
		}
		cm.egdBodies[i] = body
		cm.egdPlain[i] = d.Body
	}
	return cm, nil
}

// Mapping returns the underlying schema mapping.
func (c *Compiled) Mapping() *dependency.Mapping { return c.m }

// TGDBodies returns the concrete tgd bodies — the Φ+ set the source is
// normalized against. Shared; do not mutate.
func (c *Compiled) TGDBodies() []logic.Conjunction { return c.tgdBodies }
