package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// The benchmark owns its inputs: the mapping texts and the generators
// below are ports of the repository's workload generators, kept here so
// that no refactor of the program's internals changes what is measured.

// mapping is a TDX mapping text kept in parts, so the traced replay can
// compile the same mapping without its egds and split chase time into the
// tgd and egd phases.
type mapping struct {
	schemas string
	tgds    string
	egds    string
	queries string
}

func (m mapping) text() string        { return m.schemas + m.tgds + m.egds + m.queries }
func (m mapping) withoutEgds() string { return m.schemas + m.tgds + m.queries }

// employmentMapping is the paper's running example (Examples 1 and 6).
var employmentMapping = mapping{
	schemas: `source schema {
    E(name, company)
    S(name, salary)
}
target schema {
    Emp(name, company, salary)
}
`,
	tgds: `tgd sigma1: E(n, c) -> exists s . Emp(n, c, s)
tgd sigma2: E(n, c), S(n, s) -> Emp(n, c, s)
`,
	egds:    "egd key: Emp(n, c, s), Emp(n, c, s2) -> s = s2\n",
	queries: "query q(n, s) :- Emp(n, c, s)\n",
}

// taxiMapping integrates driver shifts and cab rides into trips; a cab is
// in one zone at a time.
var taxiMapping = mapping{
	schemas: `source schema {
    Shift(driver, cab)
    Ride(cab, zone)
}
target schema {
    Trip(driver, cab, zone)
}
`,
	tgds: `tgd shift_trip: Shift(d, c) -> exists z . Trip(d, c, z)
tgd shift_ride_trip: Shift(d, c), Ride(c, z) -> Trip(d, c, z)
`,
	egds: "egd one_zone: Trip(d, c, z), Trip(d, c, z2) -> z = z2\n",
}

// copyMapping copies one relation: no joins, no existentials, no egds.
var copyMapping = mapping{
	schemas: `source schema {
    E(name, company)
}
target schema {
    Works(name, company)
}
`,
	tgds: "tgd copy: E(n, c) -> Works(n, c)\n",
}

// Workload sizes. taxiDrivers is fixed rather than drawn per seed so that
// the work per request does not change with the seed.
const (
	empPersons     = 200
	empJobs        = 4
	empCoverage    = 0.7
	empSpan        = 200
	empPool        = 64 // distinct emp-run sources: twice the 32-entry source cache
	taxiDrivers    = 40
	taxiSpan       = 100
	taxiPool       = 16 // distinct taxi-egd sources: fits the source cache
	copyFacts      = 5000
	copyPool       = 8
	deltaScripts   = 4  // distinct session delta sequences
	deltasPerOpen  = 32 // deltas posted before a session is closed and reopened
	hiresPerDelta  = 8
	solutionEveryN = 8 // every 8th delta asks for the full solution
)

// fact is one generated source fact; end < 0 means the interval is
// unbounded.
type fact struct {
	rel        string
	args       []string
	start, end int64
}

func (f fact) appendInterval(b []byte) []byte {
	b = append(b, '[')
	b = strconv.AppendInt(b, f.start, 10)
	b = append(b, ", "...)
	if f.end < 0 {
		b = append(b, "inf"...)
	} else {
		b = strconv.AppendInt(b, f.end, 10)
	}
	return append(b, ')')
}

// appendText renders the fact as one line of the TDX fact text format.
func (f fact) appendText(b []byte) []byte {
	b = append(b, f.rel...)
	b = append(b, '(')
	for i, a := range f.args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, a...)
	}
	b = append(b, ") @ "...)
	return append(f.appendInterval(b), '\n')
}

// appendJSON renders the fact as one element of a TDX JSON facts array.
// Generated names are plain ASCII, so Go quoting is JSON quoting.
func (f fact) appendJSON(b []byte) []byte {
	b = append(b, `{"rel":`...)
	b = strconv.AppendQuote(b, f.rel)
	b = append(b, `,"args":[`...)
	for i, a := range f.args {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, a)
	}
	b = append(b, `],"interval":"`...)
	return append(f.appendInterval(b), `"}`...)
}

func textBody(facts []fact) []byte {
	var b []byte
	for _, f := range facts {
		b = f.appendText(b)
	}
	return b
}

// jsonFacts renders the inside of a TDX JSON facts array.
func jsonFacts(facts []fact) []byte {
	var b []byte
	for i, f := range facts {
		if i > 0 {
			b = append(b, ',')
		}
		b = f.appendJSON(b)
	}
	return b
}

// saltFact makes request id's body unique without changing its shape.
func saltFact(id int) fact {
	return fact{rel: "E", args: []string{"salt" + strconv.Itoa(id), "saltco"}, start: 0, end: 1}
}

// employment ports the employment-history generator: consecutive jobs
// per person with occasional gaps, and a salary over a random sub-period
// for a share of the persons, so normalization has real fragmentation
// to do.
func employment(seed int64, persons int) []fact {
	r := rand.New(rand.NewSource(seed))
	var out []fact
	for p := 0; p < persons; p++ {
		name := "p" + strconv.Itoa(p)
		t := r.Int63n(empSpan / 4)
		for j := 0; j < empJobs; j++ {
			dur := 1 + r.Int63n(empSpan/4)
			company := "c" + strconv.Itoa(r.Intn(persons/2+1))
			if j == empJobs-1 && r.Intn(3) == 0 {
				out = append(out, fact{rel: "E", args: []string{name, company}, start: t, end: -1})
				break
			}
			out = append(out, fact{rel: "E", args: []string{name, company}, start: t, end: t + dur})
			t += dur + r.Int63n(3)
		}
		if r.Float64() < empCoverage {
			s := r.Int63n(empSpan / 2)
			e := s + 1 + r.Int63n(empSpan/2)
			out = append(out, fact{rel: "S", args: []string{name, strconv.Itoa(10+r.Intn(90)) + "k"}, start: s, end: e})
		}
	}
	return out
}

// taxi ports the ride-log generator: long driver shifts over cabs whose
// rides are consecutive short intervals, so the zone egd never fails
// but merges a null per shift fragment. Shifts last the original
// generator's mean length, so the egd's work per source does not vary
// with the seed.
func taxi(seed int64, drivers int) []fact {
	r := rand.New(rand.NewSource(seed))
	cabs := 2 * drivers / 5
	var out []fact
	for d := 0; d < drivers; d++ {
		s := r.Int63n(taxiSpan / 2)
		out = append(out, fact{rel: "Shift", args: []string{"drv" + strconv.Itoa(d), "cab" + strconv.Itoa(r.Intn(cabs))}, start: s, end: s + 4 + taxiSpan/4})
	}
	for c := 0; c < cabs; c++ {
		cab := "cab" + strconv.Itoa(c)
		for t := r.Int63n(4); t < taxiSpan; {
			dur := 1 + r.Int63n(5)
			out = append(out, fact{rel: "Ride", args: []string{cab, "z" + strconv.Itoa(r.Intn(12))}, start: t, end: t + dur})
			t += dur
		}
	}
	return out
}

// copySource generates n facts with distinct names, so none collapse.
func copySource(seed int64, n int) []fact {
	r := rand.New(rand.NewSource(seed))
	out := make([]fact, n)
	for i := range out {
		s := r.Int63n(1000)
		out[i] = fact{rel: "E", args: []string{"w" + strconv.Itoa(i), "c" + strconv.Itoa(r.Intn(n/10))}, start: s, end: s + 1 + r.Int63n(100)}
	}
	return out
}

// workload is one traffic mix the benchmark drives tdxd with.
type workload struct {
	name    string
	mapping mapping
	query   string // ?query= of run requests; empty for none
	json    bool   // request bodies are TDX JSON documents, else fact text
	warmup  int    // measured requests sent during set-up
	sizes   map[string]int

	// body returns the id-th run request body (run workloads).
	body func(id int) []byte
	// session is the session-delta plan (session workload only).
	session *sessionPlan
}

func (w *workload) contentType() string {
	if w.json {
		return "application/json"
	}
	return "text/plain"
}

// sessionPlan is the session-delta workload's input: one base source and
// a few delta scripts. Session k replays script k mod len(scripts), so
// every ?solution=true document can be checked against a fresh run.
type sessionPlan struct {
	baseFacts int
	baseBody  []byte
	scripts   [][]delta
}

type delta struct {
	body     []byte
	solution bool // ask for the full updated solution
	salary   bool // a salary for a base person who had none
}

// workloadNames lists the workloads in the order a full run drives them.
var workloadNames = []string{"emp-run", "taxi-egd", "copy-bulk", "session-delta"}

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	r := rand.New(rand.NewSource(seed))
	switch name {
	case "emp-run":
		pool := make([][]byte, empPool)
		total := 0
		for i := range pool {
			facts := employment(r.Int63(), empPersons)
			total += len(facts)
			pool[i] = textBody(facts)
		}
		return &workload{
			name: name, mapping: employmentMapping, query: "q", warmup: 20,
			sizes: map[string]int{"persons": empPersons, "pool": empPool, "mean_source_facts": total/empPool + 1},
			body: func(id int) []byte {
				return saltFact(id).appendText(append([]byte(nil), pool[id%empPool]...))
			},
		}, nil
	case "taxi-egd":
		pool := make([][]byte, taxiPool)
		total := 0
		for i := range pool {
			facts := taxi(r.Int63(), taxiDrivers)
			total += len(facts)
			pool[i] = []byte(`{"facts":[` + string(jsonFacts(facts)) + "]}")
		}
		return &workload{
			name: name, mapping: taxiMapping, json: true, warmup: taxiPool,
			sizes: map[string]int{"drivers": taxiDrivers, "cabs": 2 * taxiDrivers / 5, "pool": taxiPool, "mean_source_facts": total / taxiPool},
			body:  func(id int) []byte { return pool[id%taxiPool] },
		}, nil
	case "copy-bulk":
		pool := make([][]byte, copyPool)
		for i := range pool {
			pool[i] = jsonFacts(copySource(r.Int63(), copyFacts))
		}
		return &workload{
			name: name, mapping: copyMapping, json: true, warmup: 20,
			sizes: map[string]int{"source_facts": copyFacts + 1, "pool": copyPool},
			body: func(id int) []byte {
				b := append([]byte(`{"facts":[`), saltFact(id).appendJSON(nil)...)
				b = append(append(b, ','), pool[id%copyPool]...)
				return append(b, "]}"...)
			},
		}, nil
	case "session-delta":
		p := newSessionPlan(r)
		return &workload{
			name: name, mapping: employmentMapping, warmup: 20, session: p,
			sizes: map[string]int{"base_persons": empPersons, "base_facts": p.baseFacts, "deltas_per_session": deltasPerOpen, "hires_per_delta": hiresPerDelta, "scripts": deltaScripts},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// newSessionPlan draws the base and the delta scripts. In each script 3
// deltas in 4 hire new persons (the delta chase's fast path) and every
// 4th gives a salary to a base person who had none.
func newSessionPlan(r *rand.Rand) *sessionPlan {
	base := employment(r.Int63(), empPersons)
	salaried := map[string]bool{}
	for _, f := range base {
		if f.rel == "S" {
			salaried[f.args[0]] = true
		}
	}
	var unpaid []fact // each unsalaried person's first job
	seen := map[string]bool{}
	for _, f := range base {
		if f.rel == "E" && !salaried[f.args[0]] && !seen[f.args[0]] {
			seen[f.args[0]] = true
			unpaid = append(unpaid, f)
		}
	}
	p := &sessionPlan{baseFacts: len(base), baseBody: textBody(base)}
	perScript := deltasPerOpen / 4
	for s := 0; s < deltaScripts; s++ {
		script := make([]delta, deltasPerOpen)
		for j := range script {
			d := &script[j]
			d.solution = j%solutionEveryN == solutionEveryN-1
			var facts []fact
			if j%4 == 3 {
				job := unpaid[(s*perScript+j/4)%len(unpaid)]
				end := job.end
				if end < 0 {
					end = job.start + 50
				}
				d.salary = true
				facts = []fact{{rel: "S", args: []string{job.args[0], strconv.Itoa(10+r.Intn(90)) + "k"}, start: job.start, end: end}}
			} else {
				for k := 0; k < hiresPerDelta; k++ {
					name := fmt.Sprintf("h%dx%dx%d", s, j, k)
					t := r.Int63n(empSpan)
					e := t + 1 + r.Int63n(empSpan/4)
					s0 := t + r.Int63n(e-t)
					facts = append(facts,
						fact{rel: "E", args: []string{name, "c" + strconv.Itoa(r.Intn(empPersons/2+1))}, start: t, end: e},
						fact{rel: "S", args: []string{name, strconv.Itoa(10+r.Intn(90)) + "k"}, start: s0, end: e + r.Int63n(10)})
				}
			}
			d.body = textBody(facts)
		}
		p.scripts = append(p.scripts, script)
	}
	return p
}

// sourceThrough returns the facts text of the base plus script s's
// deltas 0..pos: the source a fresh run must match after delta pos.
func (p *sessionPlan) sourceThrough(s, pos int) string {
	b := append([]byte(nil), p.baseBody...)
	for _, d := range p.scripts[s][:pos+1] {
		b = append(b, d.body...)
	}
	return string(b)
}
