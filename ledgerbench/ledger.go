package main

// The layer ledger: the traced run. It times the calls into each layer's
// public functions from here, on the workload's own scenarios, from the
// kernel up to the gateway, so that a layer's cost is its difference from
// the layer below. Timers wrap whole loops of calls (per request only where
// a latency is reported), and the end-to-end metrics come from a separate
// untraced run, so the clock reads cost the end-to-end numbers nothing.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"provabs/internal/abstree"
	"provabs/internal/core"
	"provabs/internal/hypo"
	"provabs/internal/provenance"
	"provabs/internal/scenql"
	"provabs/internal/semiring"
	"provabs/internal/session"
)

// ledgerSpec is what a workload contributes to its ledger.
type ledgerSpec struct {
	pool    []map[string]float64 // scenarios for the in-process layers
	sweeps  []sweep              // statements for session.query and scenql
	traffic traffic              // the workload's wire traffic
}

// traffic is a fixed amount of the workload's wire traffic on the original
// session, sent to whichever tier baseURL names.
type traffic struct {
	run   func(baseURL string) trafficResult
	check func(c *checker, e *env) error
}

type trafficResult struct {
	scenarios int
	failed    int
	dur       time.Duration
	reqBytes  int64
	respBytes int64
}

const (
	ledgerReps = 3   // repeats of wire traffic and set-up steps
	ledgerAdds = 200 // adds per write-path layer
)

// allocs counts heap allocations made by f.
func allocs(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

// repeatFor calls f until at least minTime has passed, returning the number
// of calls, the time and the allocations.
func repeatFor(minTime time.Duration, f func()) (int, time.Duration, uint64) {
	n, total, mallocs := 0, time.Duration(0), uint64(0)
	for total < minTime {
		d, a := allocs(f)
		n, total, mallocs = n+1, total+d, mallocs+a
	}
	return n, total, mallocs
}

func medianOf(reps int, f func() time.Duration) time.Duration {
	var xs []float64
	for i := 0; i < reps; i++ {
		xs = append(xs, float64(f()))
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func answerDigest(ans []hypo.Answer) uint64 {
	h := uint64(fnvOffset)
	for _, a := range ans {
		h = mixAnswer(h, a.Tag, a.Value)
	}
	return h
}

// valueDigest digests carrier-erased answers; ok is false unless every
// value is a float64.
func valueDigest(ans []hypo.ValueAnswer) (d uint64, ok bool) {
	h := uint64(fnvOffset)
	for _, a := range ans {
		v, isFloat := a.Value.(float64)
		if !isFloat {
			return 0, false
		}
		h = mixAnswer(h, a.Tag, v)
	}
	return h, true
}

func runLedger(cfg *config, rep *report, e *env, spec ledgerSpec) error {
	c := rep.checks
	// Each of the six in-process layers timed in a loop gets a tenth of the
	// run (at least 300 ms), so the ledger takes about as long as --seconds.
	minTime := max(300*time.Millisecond, cfg.seconds/10)
	const reads = 100000
	start := time.Now()
	for i := 0; i < reads; i++ {
		time.Now()
	}
	rep.notes = append(rep.notes, fmt.Sprintf("tracing: one clock read costs %.1f ns",
		float64(time.Since(start).Nanoseconds())/reads))
	set := e.orig.Active()
	n := len(spec.pool)
	exp, err := expect(newOracle(set), spec.pool)
	if err != nil {
		return err
	}
	checkDigest := func(layer string, i int, d uint64) {
		c.rows++
		if d != exp.full[i] {
			c.failf("%s: scenario %d differs from the oracle", layer, i)
		}
	}

	// Set-up layers.
	for _, name := range []string{"Q5", "telco"} {
		gen := medianOf(ledgerReps, func() time.Duration {
			ds, err := loadDataset(name)
			if err != nil {
				return 0
			}
			return ds.gen
		})
		layer := map[string]string{"Q5": "tpch", "telco": "telco"}[name]
		rep.set(layer+".gen_ms", ms(gen), "ms")
	}
	forest := abstree.MustForest(e.ds.tree)
	rep.set("core.compress_ms", ms(medianOf(ledgerReps, func() time.Duration {
		start := time.Now()
		core.OptimalCompressor().Compress(set, forest, set.Size()/2) //nolint:errcheck // timed; set-up proved it works
		return time.Since(start)
	})), "ms")
	rep.set("provenance.compile_ms", ms(medianOf(ledgerReps, func() time.Duration {
		start := time.Now()
		set.Compile()
		return time.Since(start)
	})), "ms")

	// provenance: the compiled kernel's full evaluation.
	k := set.Compile()
	dense := make([][]float64, n)
	for i, sc := range spec.pool {
		m := map[provenance.Var]float64{}
		for name, x := range sc {
			v, _ := set.Vocab.Lookup(name)
			m[v] = x
		}
		dense[i] = k.Valuation(m)
	}
	var out []float64
	for i := range dense {
		out = k.Eval(dense[i], out)
		checkDigest("provenance kernel", i, digestOf(exp.o.tags, out, len(out)))
	}
	calls, d, _ := repeatFor(minTime, func() {
		for i := range dense {
			out = k.Eval(dense[i], out)
		}
	})
	rep.set("provenance.kernel_ns_per_scn", float64(d.Nanoseconds())/float64(calls*n), "ns")

	// hypo: batch evaluation with delta routing, one worker.
	scs := make([]*hypo.Scenario, n)
	for i, sc := range spec.pool {
		scs[i] = &hypo.Scenario{Assign: sc}
	}
	var batchErr error
	calls, d, mallocs := repeatFor(minTime, func() {
		res, err := hypo.EvalBatch(k, scs, hypo.BatchOptions{Workers: 1})
		if err != nil {
			batchErr = err
			return
		}
		for i, v := range res {
			checkDigest("hypo batch", i, digestOf(exp.o.tags, v, len(v)))
		}
	})
	if batchErr != nil {
		return batchErr
	}
	rep.set("hypo.batch_ns_per_scn", float64(d.Nanoseconds())/float64(calls*n), "ns")
	rep.set("hypo.allocs_per_scn", float64(mallocs)/float64(calls*n), "count")

	// session: one-shot what-ifs, the stream, and ScenQL statements, on the
	// original session's engine.
	calls, d, _ = repeatFor(minTime, func() {
		for i, sc := range scs {
			ans, err := e.orig.WhatIf(sc)
			if err != nil {
				c.failf("session what-if: %v", err)
				continue
			}
			checkDigest("session what-if", i, answerDigest(ans))
		}
	})
	rep.set("session.whatif_ns_per_scn", float64(d.Nanoseconds())/float64(calls*n), "ns")

	calls, d, mallocs = repeatFor(minTime, func() {
		in := make(chan *hypo.Scenario)
		results := e.orig.StreamIn(context.Background(), semiring.KindFloat, in)
		go func() {
			for _, sc := range scs {
				in <- sc
			}
			close(in)
		}()
		for r := range results {
			if r.Err != nil || r.Index < 0 || r.Index >= n {
				c.failf("session stream: scenario %d: %v", r.Index, r.Err)
				continue
			}
			dg, ok := valueDigest(r.Answers)
			if !ok {
				c.failf("session stream: scenario %d: not a float answer", r.Index)
			}
			checkDigest("session stream", r.Index, dg)
		}
	})
	rep.set("session.stream_ns_per_scn", float64(d.Nanoseconds())/float64(calls*n), "ns")
	rep.set("session.allocs_per_scn", float64(mallocs)/float64(calls*n), "count")

	sweepExp := make([]*expected, len(spec.sweeps))
	for i, sw := range spec.sweeps {
		if sweepExp[i], err = expect(exp.o, sw.scenarios); err != nil {
			return err
		}
	}
	generated := int64(0)
	calls, d, _ = repeatFor(minTime, func() {
		for i, sw := range spec.sweeps {
			info, rows, err := e.orig.QueryStream(context.Background(), sw.stmt)
			if err != nil {
				c.failf("session query %q: %v", sw.stmt, err)
				continue
			}
			generated += info.Scenarios
			for r := range rows {
				c.rows++
				dg, ok := valueDigest(r.Answers)
				if r.Err != nil || !ok || r.Index < 0 || r.Index >= int64(len(sw.scenarios)) ||
					dg != sweepExp[i].full[r.Index] {
					c.failf("session query %q: row %d differs from the oracle", sw.stmt, r.Index)
				}
			}
		}
	})
	rep.set("session.query_ns_per_scn", float64(d.Nanoseconds())/float64(generated), "ns")

	// scenql: planning and scenario generation alone.
	var planUs []float64
	var plans []*scenql.Plan
	for _, sw := range spec.sweeps {
		start := time.Now()
		q, err := scenql.Parse(sw.stmt)
		if err != nil {
			return err
		}
		p, err := scenql.Compile(q, set.Vocab, set.Tags)
		if err != nil {
			return err
		}
		planUs = append(planUs, float64(time.Since(start).Nanoseconds())/1e3)
		plans = append(plans, p)
	}
	rep.set("scenql.plan_us", median(planUs), "us")
	iterated := 0
	calls, d, _ = repeatFor(minTime, func() {
		for _, p := range plans {
			for it := p.Iter(); ; iterated++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
		}
	})
	rep.set("scenql.iter_ns_per_scn", float64(d.Nanoseconds())/float64(iterated), "ns")

	// server, then gateway: the workload's wire traffic direct to the
	// server and through the gateway. The session's route counters over
	// this traffic give the route shares.
	before := e.orig.Stats()
	for _, tier := range []struct{ name, url string }{{"server", e.st.backend.URL}, {"gateway", e.st.front.URL}} {
		var perScn, req, resp []float64
		for i := 0; i < ledgerReps; i++ {
			r := spec.traffic.run(tier.url)
			rep.attempted += int64(r.scenarios)
			rep.failed += int64(r.failed)
			if r.scenarios > 0 {
				perScn = append(perScn, float64(r.dur.Nanoseconds())/float64(r.scenarios))
				req = append(req, float64(r.reqBytes)/float64(r.scenarios))
				resp = append(resp, float64(r.respBytes)/float64(r.scenarios))
			}
		}
		rep.set(tier.name+".ns_per_scn", median(perScn), "ns")
		if tier.name == "server" {
			rep.set("server.req_bytes_per_scn", median(req), "B")
			rep.set("server.resp_bytes_per_scn", median(resp), "B")
		}
	}
	after := e.orig.Stats()
	scen := float64(after.Scenarios - before.Scenarios)
	share := func(a, b int64) float64 {
		if scen == 0 {
			return 0
		}
		return float64(a-b) / scen
	}
	rep.set("session.delta_share", share(after.DeltaEvals, before.DeltaEvals), "ratio")
	rep.set("session.chained_share", share(after.ChainedEvals, before.ChainedEvals), "ratio")
	rep.set("session.full_share", share(after.FullEvals, before.FullEvals), "ratio")
	rep.set("session.sharded_share", share(after.ShardedEvals, before.ShardedEvals), "ratio")
	if err := spec.traffic.check(c, e); err != nil {
		return err
	}

	return writePath(cfg, rep, e, spec)
}

// writePath times one add at each layer of the write path: through the
// gateway onto a durable session (with every fsync counted and timed by
// the filesystem handed to the durable layer), through registry's
// Session.Add in-process, and through session's Engine.Add with no
// durability at all.
func writePath(cfg *config, rep *report, e *env, spec ledgerSpec) error {
	c := rep.checks
	lines := addLines(rand.New(rand.NewSource(cfg.seed)), e.ds.set, 3*ledgerAdds)
	type addLine struct{ Tag, Poly string }
	parsed := make([]addLine, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal(l, &parsed[i]); err != nil {
			return err
		}
	}

	st := e.st
	if st.fs == nil {
		dir, err := os.MkdirTemp("", "ledgerbench-wal-")
		if err != nil {
			return err
		}
		if st, err = startStack(dir); err != nil {
			return err
		}
		defer st.close()
		if err := st.create(origSession, e.ds.set, e.ds.tree); err != nil {
			return err
		}
	}
	sess, err := st.reg.Get(origSession)
	if err != nil {
		return err
	}
	startLen := sess.Engine().Active().Len()
	walBefore, _ := sess.WALStats()
	st.fs.taken()

	var gw []time.Duration
	s, err := openStream(st.front.URL, sessionPath(origSession, "add"))
	if err != nil {
		return err
	}
	for _, l := range lines[:ledgerAdds] {
		start := time.Now()
		rep.attempted++
		err := s.send(l)
		var ack []byte
		if err == nil {
			ack, err = s.readLine()
		}
		if err != nil {
			rep.failed++
			break
		}
		if r, err := parseRow(ack); err != nil || r.err != "" {
			rep.failed++
			continue
		}
		gw = append(gw, time.Since(start))
	}
	s.closeSend()
	s.finish()

	var reg []time.Duration
	for _, l := range parsed[ledgerAdds : 2*ledgerAdds] {
		start := time.Now()
		rep.attempted++
		if err := sess.AddText(l.Tag, l.Poly); err != nil {
			rep.failed++
			continue
		}
		reg = append(reg, time.Since(start))
	}
	syncs := st.fs.taken()
	walAfter, _ := sess.WALStats()
	durableAdds := float64(len(gw) + len(reg))

	plain, err := session.Open(e.ds.set.Clone(), nil)
	if err != nil {
		return err
	}
	plain.Compiled() // as in a serving session, each add patches the compiled form
	// Engine.Add takes about a microsecond, so it is timed as a loop: two
	// clock reads per add would be a fifth of what they measure.
	polys := make([]*provenance.Polynomial, ledgerAdds)
	for i, l := range parsed[2*ledgerAdds : 3*ledgerAdds] {
		if polys[i], err = plain.ParsePoly(l.Poly); err != nil {
			return err
		}
	}
	start := time.Now()
	for i, p := range polys {
		plain.Add(parsed[2*ledgerAdds+i].Tag, p)
	}
	engineAdd := time.Since(start) / ledgerAdds

	rep.set("gateway.add_us", median(micros(gw)), "us")
	rep.set("registry.add_us", median(micros(reg)), "us")
	rep.set("session.add_us", float64(engineAdd.Nanoseconds())/1e3, "us")
	rep.set("durable.fsyncs_per_add", float64(len(syncs))/durableAdds, "count")
	rep.set("durable.sync_us", median(micros(syncs)), "us")
	rep.set("durable.wal_bytes_per_add", float64(walAfter-walBefore)/durableAdds, "B")

	// The adds must all be there and answer like a fresh compile.
	active := sess.Engine().Active()
	if got := active.Len(); got != startLen+int(durableAdds) {
		c.failf("durable session holds %d polynomials after %d adds to %d", got, int(durableAdds), startLen)
	}
	x, err := expect(newOracle(active), spec.pool[:1])
	if err != nil {
		return err
	}
	r, _, ok := oneShot(st, st.front.URL, origSession, whatIfLines(spec.pool[:1])[0], 0)
	if !ok {
		return fmt.Errorf("what-if after adds failed")
	}
	c.rowsFull("what-if after adds", x, []got{r})
	return nil
}

// streamTraffic is q5-interactive's wire traffic: one pipelined what-if
// stream of n pool scenarios.
func streamTraffic(pool []map[string]float64, lines [][]byte, rng *rand.Rand, n int) traffic {
	var rows []got
	return traffic{
		run: func(baseURL string) trafficResult {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = rng.Intn(len(lines))
			}
			res := pipelined(baseURL, origSession, lines, ids)
			rows = append(rows, res.rows...)
			return trafficResult{scenarios: n, failed: res.failed, dur: res.dur, reqBytes: res.reqBytes, respBytes: res.respBytes}
		},
		check: func(c *checker, e *env) error { return checkPoolRows(c, e, pool, rows) },
	}
}

// windowTraffic is telco-ingest's read traffic: a what-if stream with a
// window of ingestWindow scenarios in flight.
func windowTraffic(pool []map[string]float64, lines [][]byte, rng *rand.Rand) traffic {
	var rows []got
	leg := &ingestLeg{sess: origSession, lines: lines}
	return traffic{
		run: func(baseURL string) trafficResult {
			*leg = ingestLeg{sess: origSession, lines: lines}
			start := time.Now()
			leg.read(baseURL, rng, start.Add(ingestPhase))
			rows = append(rows, leg.rows...)
			return trafficResult{
				scenarios: int(leg.readsTried), failed: int(leg.readsFailed), dur: time.Since(start),
				reqBytes: leg.readBytes[0], respBytes: leg.readBytes[1],
			}
		},
		check: func(c *checker, e *env) error { return checkPoolRows(c, e, pool, rows) },
	}
}

// sweepTraffic is telco-sweep's wire traffic: eight sweeps.
func sweepTraffic(client *http.Client, sweeps []sweep, rng *rand.Rand) traffic {
	type done struct {
		sw  int
		res swept
	}
	var all []done
	return traffic{
		run: func(baseURL string) trafficResult {
			var tr trafficResult
			for i := 0; i < 8; i++ {
				j := rng.Intn(len(sweeps))
				res := querySweep(client, baseURL, origSession, sweeps[j].stmt)
				all = append(all, done{j, res})
				tr.scenarios += len(sweeps[j].scenarios)
				tr.dur += res.dur
				tr.reqBytes += res.reqBytes
				tr.respBytes += res.respBytes
				if !res.ok {
					tr.failed += len(sweeps[j].scenarios)
				}
			}
			return tr
		},
		check: func(c *checker, e *env) error {
			o := newOracle(e.orig.Active())
			for _, d := range all {
				x, err := expect(o, sweeps[d.sw].scenarios)
				if err != nil {
					return err
				}
				if d.res.ok {
					if err := checkSweep(c, "telco sweep", sweeps[d.sw], x, d.res); err != nil {
						c.failf("telco sweep: %v", err)
					}
				}
			}
			return nil
		},
	}
}

// checkPoolRows checks what-if rows of pool scenarios against a fresh
// compile of the original session's set.
func checkPoolRows(c *checker, e *env, pool []map[string]float64, rows []got) error {
	x, err := expect(newOracle(e.orig.Active()), pool)
	if err != nil {
		return err
	}
	c.rowsFull("what-if traffic", x, rows)
	return nil
}

// ledgerSweeps draws the statements for the session.query and scenql rows
// of a workload that does not sweep itself.
func ledgerSweeps(rng *rand.Rand, e *env) ([]sweep, error) {
	orig, _, err := sweepPool(rng, e, 8)
	return orig, err
}
