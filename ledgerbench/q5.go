package main

// q5-interactive: one analyst asking sparse what-ifs of TPC-H Q5 through the
// gateway — one-shot requests, each waited for, then pipelined streams on
// the original and on the abstracted session. A full kernel evaluation of
// Q5 costs a couple of microseconds, so gateway proxying and the server's
// decode, encode and flush do nearly all the work.

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

const (
	setupReps    = 11                     // set-ups per run; the median is reported
	oneShotBlock = 100 * time.Millisecond // one-shot requests per round
	q5Pool       = 4096                   // distinct what-ifs per seed
	q5StreamLen  = 3000                   // scenarios per pipelined stream
)

func runQ5(cfg *config) (*report, error) {
	rep := &report{checks: &checker{}}
	e, setupS, err := setUpRepeated(cfg, "Q5", false, setupReps, rep.checks)
	if err != nil {
		return nil, err
	}
	defer e.st.close()
	heap := liveHeapMB()

	rng := rand.New(rand.NewSource(cfg.seed))
	pool := whatIfPool(rng, e.ds.set, q5Pool)
	absPool := project(e.vvs, pool)
	lines, absLines := whatIfLines(pool), whatIfLines(absPool)
	rep.checks.probeSet, rep.checks.probeAssign = e.orig.Active(), pool[0]
	if cfg.trace {
		sweeps, err := ledgerSweeps(rng, e)
		if err != nil {
			return nil, err
		}
		return rep, runLedger(cfg, rep, e, ledgerSpec{
			pool:    pool,
			sweeps:  sweeps,
			traffic: streamTraffic(pool, lines, rng, q5StreamLen),
		})
	}

	var (
		lat             latencies
		oneShots        meter
		oneRows         []got
		orig, abs       meter
		origRows        []got
		absRows         []got
		streamAttempted int64
		streamFailed    int64
		front           = e.st.front.URL
		draw            = func() int { return rng.Intn(len(pool)) }
		deadline        = time.Now().Add(cfg.seconds)
	)
	for time.Now().Before(deadline) {
		oneShots.start()
		blockStart, answered := time.Now(), 0
		for time.Since(blockStart) < oneShotBlock {
			id := draw()
			g, d, ok := oneShot(e.st, front, origSession, lines[id], id)
			if !ok {
				lat.fail()
				continue
			}
			lat.ok(d)
			oneRows = append(oneRows, g)
			answered++
		}
		oneShots.stop(answered)

		ids := make([]int, q5StreamLen)
		for i := range ids {
			ids[i] = draw()
		}
		for _, leg := range []struct {
			sess  string
			lines [][]byte
			m     *meter
			rows  *[]got
		}{{origSession, lines, &orig, &origRows}, {absSession, absLines, &abs, &absRows}} {
			leg.m.start()
			res := pipelined(front, leg.sess, leg.lines, ids)
			leg.m.stop(len(ids) - res.failed)
			*leg.rows = append(*leg.rows, res.rows...)
			streamAttempted += int64(len(ids))
			streamFailed += int64(res.failed)
		}
	}

	exp, err := expect(newOracle(e.orig.Active()), pool)
	if err != nil {
		return nil, err
	}
	absExp, err := expect(newOracle(e.abs.Active()), absPool)
	if err != nil {
		return nil, err
	}
	rep.checks.rowsFull("q5 one-shot", exp, oneRows)
	rep.checks.rowsFull("q5 stream", exp, origRows)
	rep.checks.rowsFull("q5 abstracted stream", absExp, absRows)

	rep.attempted = lat.attempted() + streamAttempted
	rep.failed = lat.failed + streamFailed
	rep.endToEnd(e, setupS, heap, &lat, &oneShots, &orig, &abs, meanRelErr(exp.vals, absExp.vals))
	return rep, nil
}

// endToEnd records the metrics every workload reports with tracing off.
// Gated are the scenarios the stack serves per CPU-second on the original
// and the abstracted session, the abstraction's accuracy and size, the live
// heap and the set-up time. Wall-clock latencies and throughputs go to
// standard error: on a shared host they move with the CPU time other
// tenants steal, by more than any bound could absorb.
func (r *report) endToEnd(e *env, setupS, heap float64, lat *latencies, reqs, orig, abs *meter, relErr float64) {
	r.set("setup_s", setupS, "s")
	r.set("live_heap_mb", heap, "MB")
	r.set("scen_per_cpu_s", median(orig.perCPU), "1/s")
	r.set("abs_scen_per_cpu_s", median(abs.perCPU), "1/s")
	r.set("abs_rel_err", relErr, "ratio")
	r.set("abs_size_ratio", float64(e.absShape.Monomials)/float64(e.ds.set.Size()), "ratio")
	r.notes = append(r.notes,
		fmt.Sprintf("wall clock (not gated): requests %d, p50 %.1f us, p90 %.1f us, p99 %.1f us, %.1f requests/s",
			len(lat.us), quantile(lat.us, 0.5), lat.tail(0.9), lat.tail(0.99), median(reqs.rate)),
		fmt.Sprintf("wall clock (not gated): %.1f scenarios/s original, %.1f scenarios/s abstracted",
			median(orig.rate), median(abs.rate)))
}

// meanRelErr is the mean relative error of the abstracted answers against
// the original ones, over every answer whose original value is not zero.
func meanRelErr(orig, abs [][]float64) float64 {
	sum, n := 0.0, 0
	for i := range orig {
		for j, o := range orig[i] {
			if o != 0 && j < len(abs[i]) {
				sum += math.Abs(abs[i][j]-o) / math.Abs(o)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
