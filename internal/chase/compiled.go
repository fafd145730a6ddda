package chase

import (
	"fmt"

	"repro/internal/dependency"
	"repro/internal/logic"
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
// chase, whose plain body/head live on d), and the universal head
// variables the parallel chase records per match.
type compiledTGD struct {
	d        dependency.TGD
	body     logic.Conjunction // ConcreteBody()
	head     logic.Conjunction // ConcreteHead()
	exist    []string
	headVars []string // universal data variables of the head, in first-occurrence order
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
		isExist := make(map[string]bool, len(ct.exist))
		for _, y := range ct.exist {
			isExist[y] = true
		}
		for _, v := range ct.head.Vars() {
			if v != dependency.TemporalVar && !isExist[v] {
				ct.headVars = append(ct.headVars, v)
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
