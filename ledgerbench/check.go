package main

// The answer check. Every answer the benchmark receives is compared, by
// the bits of its value, against an oracle built in the same process from
// a fresh compile of the exact set the session serves (Engine.Active()).
// Nothing is compared against Polynomial.Eval or Set.Eval, which sum in map
// order, or against digests from another process: an abstracted set's
// coefficients can differ in their last bits from one process to the next,
// so across runs the abstraction is checked by its deterministic shape.

import (
	"encoding/json"
	"fmt"
	"math"

	"provabs/internal/provenance"
)

// oracle evaluates scenarios on a frozen compile of one set.
type oracle struct {
	k     *provenance.Compiled
	vocab *provenance.Vocab
	tags  []string
}

func newOracle(set *provenance.Set) *oracle {
	return &oracle{k: set.Compile(), vocab: set.Vocab, tags: append([]string(nil), set.Tags...)}
}

// eval returns every polynomial's value under the scenario.
func (o *oracle) eval(assign map[string]float64) ([]float64, error) {
	val := o.k.NewValuation()
	for name, x := range assign {
		v, ok := o.vocab.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("oracle: unknown variable %q", name)
		}
		if int(v) < len(val) {
			val[v] = x
		}
	}
	return o.k.Eval(val, nil), nil
}

// expected holds the oracle's answers to a pool of scenarios.
type expected struct {
	o    *oracle
	vals [][]float64
	full []uint64 // digest of each complete answer vector
}

func expect(o *oracle, pool []map[string]float64) (*expected, error) {
	e := &expected{o: o, vals: make([][]float64, len(pool)), full: make([]uint64, len(pool))}
	for i, sc := range pool {
		v, err := o.eval(sc)
		if err != nil {
			return nil, err
		}
		e.vals[i] = v
		e.full[i] = digestOf(o.tags, v, len(v))
	}
	return e, nil
}

// got is one received answer row, tagged with the pool scenario it answers.
type got struct {
	scn    int
	n      int
	digest uint64
}

// checker collects disagreements.
type checker struct {
	rows     int64
	bad      int64
	problems []string

	// probeSet and probeAssign are the set and scenario selfTest uses
	// (a one-polynomial set when unset).
	probeSet    *provenance.Set
	probeAssign map[string]float64
}

func (c *checker) failf(format string, args ...any) {
	c.bad++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool { return c.bad == 0 }

// rowsFull checks rows that must carry every answer of the set.
func (c *checker) rowsFull(what string, e *expected, rows []got) {
	for _, r := range rows {
		c.rows++
		if r.n != len(e.vals[r.scn]) || r.digest != e.full[r.scn] {
			c.failf("%s: scenario %d: %d answers differ from the oracle's %d", what, r.scn, r.n, len(e.vals[r.scn]))
		}
	}
}

// rowsPrefix checks rows from a session that grew while they were
// answered: each must equal the oracle's first n answers, n at least the
// size the session started with.
func (c *checker) rowsPrefix(what string, e *expected, start int, rows []got) {
	memo := map[[2]int]uint64{}
	for _, r := range rows {
		c.rows++
		vals := e.vals[r.scn]
		if r.n < start || r.n > len(vals) {
			c.failf("%s: scenario %d: %d answers, want between %d and %d", what, r.scn, r.n, start, len(vals))
			continue
		}
		key := [2]int{r.scn, r.n}
		d, ok := memo[key]
		if !ok {
			d = digestOf(e.o.tags, vals, r.n)
			memo[key] = d
		}
		if r.digest != d {
			c.failf("%s: scenario %d: the first %d answers differ from the oracle's", what, r.scn, r.n)
		}
	}
}

// selfTest proves the check can fail: a line carrying the oracle's answers
// must pass, and the same line with one bit of one value flipped must not.
func (c *checker) selfTest() {
	set, assign := c.probeSet, c.probeAssign
	if set == nil {
		set = provenance.NewSet(provenance.NewVocab())
		p := provenance.NewPolynomial()
		p.AddTerm(0.1, set.Vocab.Var("x"))
		p.AddTerm(0.7)
		set.Add("t", p)
		assign = map[string]float64{"x": 3}
	}
	if err := flippedBitIsCaught(set, assign); err != nil {
		c.failf("self-test: %v", err)
	}
}

// flippedBitIsCaught runs one scenario through the oracle, renders the
// answers the way the server does, and checks that the parsed line agrees
// with the oracle while a copy with the lowest bit of the first value
// flipped does not.
func flippedBitIsCaught(set *provenance.Set, assign map[string]float64) error {
	o := newOracle(set)
	e, err := expect(o, []map[string]float64{assign})
	if err != nil {
		return err
	}
	line := func(vals []float64) []byte {
		type answer struct {
			Tag   string  `json:"tag"`
			Value float64 `json:"value"`
		}
		doc := struct {
			Index   int      `json:"index"`
			Answers []answer `json:"answers"`
		}{}
		for i, v := range vals {
			doc.Answers = append(doc.Answers, answer{o.tags[i], v})
		}
		b, _ := json.Marshal(doc)
		return b
	}
	verdict := func(vals []float64) (bool, error) {
		r, err := parseRow(line(vals))
		if err != nil {
			return false, err
		}
		var c checker
		c.rowsFull("self-test", e, []got{{scn: 0, n: r.n, digest: r.digest}})
		return c.ok(), nil
	}
	good, err := verdict(e.vals[0])
	if err != nil {
		return err
	}
	if !good {
		return fmt.Errorf("the oracle's own answers were rejected")
	}
	flipped := append([]float64(nil), e.vals[0]...)
	flipped[0] = math.Float64frombits(math.Float64bits(flipped[0]) ^ 1)
	passed, err := verdict(flipped)
	if err != nil {
		return err
	}
	if passed {
		return fmt.Errorf("an answer with one flipped bit passed the check")
	}
	return nil
}
