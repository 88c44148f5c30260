package main

// Datasets, seeded scenario generators and the timed set-up every workload
// starts with. The provenance sets are fixed (the repository's delta
// benchmark scale, bench.DeltaScale); the seed drives only what the analyst
// asks, which is all the program sees.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/bench"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/scenql"
	"provabs/internal/session"
	"provabs/internal/telco"
	"provabs/internal/tpch"
	"provabs/internal/treegen"
)

// dataset is one of the paper's provenance sets with the Table 2 type-1
// tree (root fan-out 2) over its 128 leaf variables.
type dataset struct {
	name   string
	set    *provenance.Set
	tree   *abstree.Tree
	prefix string        // the tree's leaf-variable prefix
	gen    time.Duration // time to generate the set
}

// wantShape is what compression to half the monomials must give, in every
// run and every process; the original shape is checked as well.
var wantShape = map[string]struct{ orig, abs shape }{
	"Q5":    {shape{415, 236, nil}, shape{396, 120, []string{"Q5Root"}}},
	"telco": {shape{23028, 140, nil}, shape{4740, 14, []string{"telcoRoot_l1_0", "telcoRoot_l1_1"}}},
}

func loadDataset(name string) (*dataset, error) {
	sc := bench.DeltaScale()
	start := time.Now()
	var (
		set    *provenance.Set
		prefix string
		err    error
	)
	switch name {
	case "Q5":
		var d *tpch.Dataset
		if d, err = tpch.Generate(tpch.Config{ScaleFactor: sc.TPCHScaleFactor, Seed: sc.Seed}); err == nil {
			set, err = d.Provenance(tpch.Q5)
		}
		prefix = "s"
	case "telco":
		set, err = telco.SyntheticProvenance(telco.Config{
			Customers: sc.TelcoCustomers, Plans: 128, Months: 12, Zips: sc.TelcoZips, Seed: sc.Seed,
		})
		prefix = "pl"
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	if err != nil {
		return nil, err
	}
	gen := time.Since(start)
	w := &bench.Workload{Name: name, Set: set, LeafPrefix: prefix, LeafCount: 128}
	return &dataset{name: name, set: set, tree: w.Tree(treegen.SmallestOfType(1)), prefix: prefix, gen: gen}, nil
}

// env is a set-up stack with an original and an abstracted session of one
// dataset.
type env struct {
	ds       *dataset
	st       *stack
	orig     *session.Engine
	abs      *session.Engine
	vvs      *abstree.VVS // the abstracted session's cut
	absShape shape
}

const (
	origSession = "orig"
	absSession  = "abs"
)

// setUp generates the dataset, starts the tiers, creates the original and
// the abstracted session through the gateway, compresses the latter to
// half the monomials, and waits for a first answer from each: everything a
// user waits for before the first what-if.
func setUp(cfg *config, dsName string, durable bool) (*env, error) {
	ds, err := loadDataset(dsName)
	if err != nil {
		return nil, err
	}
	dir := ""
	if durable {
		if dir, err = os.MkdirTemp("", "ledgerbench-wal-"); err != nil {
			return nil, err
		}
	}
	st, err := startStack(dir)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	e := &env{ds: ds, st: st}
	fail := func(err error) (*env, error) {
		st.close()
		return nil, err
	}
	for _, name := range []string{origSession, absSession} {
		if err := st.create(name, ds.set, ds.tree); err != nil {
			return fail(err)
		}
	}
	if e.absShape, err = st.compress(absSession, ds.set.Size()/2); err != nil {
		return fail(err)
	}
	for _, name := range []string{origSession, absSession} {
		status, body, err := st.post(st.front.URL+"/v1/sessions/"+name+"/whatif", []byte(`{"assign":{}}`))
		if err != nil {
			return fail(err)
		}
		if status != 200 {
			return fail(fmt.Errorf("first answer from %s: status %d: %s", name, status, body))
		}
	}
	if e.orig, err = st.engine(origSession); err != nil {
		return fail(err)
	}
	if e.abs, err = st.engine(absSession); err != nil {
		return fail(err)
	}
	if comp := e.abs.Compression(); comp == nil || comp.VVS == nil {
		return fail(fmt.Errorf("session %s has no cut after compression", absSession))
	}
	e.vvs = e.abs.Compression().VVS
	return e, nil
}

// setUpRepeated sets up reps times, keeping the last stack, and returns it
// with the median set-up time. Each repeat's abstraction must have the
// shape the dataset always gives.
func setUpRepeated(cfg *config, dsName string, durable bool, reps int, c *checker) (*env, float64, error) {
	var e *env
	var times []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			e.st.close()
		}
		start := time.Now()
		var err error
		if e, err = setUp(cfg, dsName, durable); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		checkShapes(c, e)
	}
	return e, median(times), nil
}

func checkShapes(c *checker, e *env) {
	want := wantShape[e.ds.name]
	orig := shape{Monomials: e.ds.set.Size(), Variables: e.ds.set.Granularity()}
	if !orig.equal(want.orig) {
		c.failf("%s: generated set has %v, want %v", e.ds.name, orig, want.orig)
	}
	if !e.absShape.equal(want.abs) {
		c.failf("%s: abstraction has %v, want %v", e.ds.name, e.absShape, want.abs)
	}
	active := e.abs.Active()
	served := shape{Monomials: active.Size(), Variables: active.Granularity(), VVS: e.vvs.Labels()}
	if !served.equal(want.abs) {
		c.failf("%s: abstracted session serves %v, want %v", e.ds.name, served, want.abs)
	}
}

// whatIfValues are the values a sparse what-if assigns.
var whatIfValues = []float64{0, 0.25, 0.5, 0.8, 1.2, 1.5, 2}

// whatIfPool draws n sparse what-ifs, each setting 1–3 of the set's
// variables to values from whatIfValues.
func whatIfPool(rng *rand.Rand, set *provenance.Set, n int) []map[string]float64 {
	vars := set.Vars()
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = set.Vocab.Name(v)
	}
	sort.Strings(names)
	pool := make([]map[string]float64, n)
	for i := range pool {
		sc := map[string]float64{}
		for k := 1 + rng.Intn(3); len(sc) < k; {
			sc[names[rng.Intn(len(names))]] = whatIfValues[rng.Intn(len(whatIfValues))]
		}
		pool[i] = sc
	}
	return pool
}

// project maps leaf-level scenarios onto the cut's meta-variables, each
// group taking the mean of its members' values — how an analyst's
// question is put to the abstracted provenance.
func project(vvs *abstree.VVS, pool []map[string]float64) []map[string]float64 {
	out := make([]map[string]float64, len(pool))
	for i, sc := range pool {
		out[i] = (&hypo.Scenario{Assign: sc}).Project(vvs).Assign
	}
	return out
}

// whatIfLines renders scenarios as what-if request lines.
func whatIfLines(pool []map[string]float64) [][]byte {
	out := make([][]byte, len(pool))
	for i, sc := range pool {
		b, _ := json.Marshal(map[string]any{"assign": sc})
		out[i] = append(b, '\n')
	}
	return out
}

// sweep is one ScenQL statement with the scenarios it generates, in the
// generator's order.
type sweep struct {
	stmt      string
	scenarios []map[string]float64
	order     int // the answer the top-k is ordered by
}

const sweepTopK = 10

// sweepPool draws n ScenQL sweeps: four values of one tree leaf crossed
// with a twelve-step range of a variable outside the tree (a month for
// telco, which touches every polynomial), keeping the top ten scenarios by
// one answer. Each comes twice: on leaf variables for the original
// session, and with the leaf's group projected for the abstracted one.
func sweepPool(rng *rand.Rand, e *env, n int) (orig, abs []sweep, err error) {
	set, absSet := e.ds.set, e.abs.Active()
	var leaves, others []string
	for _, v := range set.Vars() {
		name := set.Vocab.Name(v)
		if _, _, inTree := e.vvs.Forest.TreeOfLabel(name); inTree {
			leaves = append(leaves, name)
		} else {
			others = append(others, name)
		}
	}
	sort.Strings(leaves)
	sort.Strings(others)
	leafValues := []float64{0.5, 0.75, 1.25, 1.5, 2}
	for i := 0; i < n; i++ {
		leaf := leaves[rng.Intn(len(leaves))]
		other := others[rng.Intn(len(others))]
		order := rng.Intn(set.Len())
		group := groupOf(e.vvs, leaf)
		var tuples, absTuples []string
		for _, j := range rng.Perm(len(leafValues))[:4] {
			v := leafValues[j]
			tuples = append(tuples, "("+strconv.FormatFloat(v, 'g', -1, 64)+")")
			proj := (&hypo.Scenario{Assign: map[string]float64{leaf: v}}).Project(e.vvs).Assign
			absTuples = append(absTuples, "("+strconv.FormatFloat(proj[group], 'g', -1, 64)+")")
		}
		tail := fmt.Sprintf("%s IN [0.5:1.6:0.1] ORDER BY ans[%d] DESC LIMIT %d", other, order, sweepTopK)
		o, err := newSweep(fmt.Sprintf("CROSS (%s) IN {%s} %s", leaf, strings.Join(tuples, ","), tail), set, order)
		if err != nil {
			return nil, nil, err
		}
		a, err := newSweep(fmt.Sprintf("CROSS (%s) IN {%s} %s", group, strings.Join(absTuples, ","), tail), absSet, order)
		if err != nil {
			return nil, nil, err
		}
		orig, abs = append(orig, o), append(abs, a)
	}
	return orig, abs, nil
}

// groupOf names the cut node covering a leaf.
func groupOf(vvs *abstree.VVS, leaf string) string {
	for ti, t := range vvs.Forest.Trees {
		l, ok := t.NodeByLabel(leaf)
		if !ok {
			continue
		}
		for _, n := range vvs.Nodes[ti] {
			if t.IsAncestorOrSelf(n, l) {
				return t.Label(n)
			}
		}
	}
	return leaf
}

func newSweep(stmt string, set *provenance.Set, order int) (sweep, error) {
	q, err := scenql.Parse(stmt)
	if err != nil {
		return sweep{}, fmt.Errorf("%s: %w", stmt, err)
	}
	p, err := scenql.Compile(q, set.Vocab, set.Tags)
	if err != nil {
		return sweep{}, fmt.Errorf("%s: %w", stmt, err)
	}
	s := sweep{stmt: stmt, order: order}
	for it := p.Iter(); ; {
		sc, ok := it.Next()
		if !ok {
			break
		}
		s.scenarios = append(s.scenarios, sc.Assign)
	}
	return s, nil
}

// addLines draws n add requests: each a new polynomial made of 1–4
// monomials of a random existing one, with fresh coefficients, under a
// new tag.
func addLines(rng *rand.Rand, set *provenance.Set, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		ms := set.Polys[rng.Intn(set.Len())].Monomials()
		k := 1 + rng.Intn(4)
		terms := make([]string, 0, k)
		for _, j := range rng.Perm(len(ms))[:min(k, len(ms))] {
			coeff := float64(1+rng.Intn(50000)) / 100
			terms = append(terms, provenance.NewMonomialPows(coeff, ms[j].Vars()...).String(set.Vocab))
		}
		b, _ := json.Marshal(map[string]string{"tag": fmt.Sprintf("add%d", i), "poly": strings.Join(terms, " + ")})
		out[i] = append(b, '\n')
	}
	return out
}
