package main

// telco-sweep: ScenQL sweeps of telco through /query/stream, with the top
// ten pushed down (ORDER BY … LIMIT 10), alternating between the original
// session (23,028 monomials) and the one compressed to half its monomials
// with the type-1 tree (4,740). Each sweep crosses a month, which touches
// every polynomial so the kernel does full work, with a plan leaf, which
// the abstraction approximates. Only ten rows cross the wire, so the
// kernel, hypo's routing and scenql dominate: this is the paper's speedup
// from abstraction, measured end to end, with its accuracy loss beside it.

import (
	"math/rand"
	"time"
)

const (
	sweepPoolSize = 64                     // distinct statements per seed
	sweepBlock    = 250 * time.Millisecond // sweeps per session per round
)

func runSweep(cfg *config) (*report, error) {
	rep := &report{checks: &checker{}}
	e, setupS, err := setUpRepeated(cfg, "telco", false, setupReps, rep.checks)
	if err != nil {
		return nil, err
	}
	defer e.st.close()
	heap := liveHeapMB()

	rng := rand.New(rand.NewSource(cfg.seed))
	origSw, absSw, err := sweepPool(rng, e, sweepPoolSize)
	if err != nil {
		return nil, err
	}
	rep.checks.probeSet, rep.checks.probeAssign = e.orig.Active(), origSw[0].scenarios[0]
	if cfg.trace {
		return rep, runLedger(cfg, rep, e, ledgerSpec{
			pool:    sweepScenarios(origSw),
			sweeps:  origSw,
			traffic: sweepTraffic(e.st.client, origSw, rng),
		})
	}

	type done struct {
		sw  int
		res swept
	}
	legs := []struct {
		sess    string
		sweeps  []sweep
		m       meter
		results []done
	}{{sess: origSession, sweeps: origSw}, {sess: absSession, sweeps: absSw}}
	var (
		lat      latencies
		sweeps   meter
		front    = e.st.front.URL
		deadline = time.Now().Add(cfg.seconds)
	)
	for time.Now().Before(deadline) {
		for li := range legs {
			leg := &legs[li]
			leg.m.start()
			sweeps.start()
			blockStart, scenarios, completed := time.Now(), 0, 0
			for time.Since(blockStart) < sweepBlock {
				i := rng.Intn(len(leg.sweeps))
				res := querySweep(e.st.client, front, leg.sess, leg.sweeps[i].stmt)
				if li == 0 {
					if res.ok {
						lat.ok(res.dur)
					} else {
						lat.fail()
					}
				}
				if res.ok {
					scenarios += len(leg.sweeps[i].scenarios)
					completed++
				}
				leg.results = append(leg.results, done{i, res})
			}
			leg.m.stop(scenarios)
			if li == 0 {
				sweeps.stop(completed)
			}
		}
	}

	exps := make([][]*expected, len(legs))
	for li, leg := range legs {
		o := newOracle(e.orig.Active())
		if leg.sess == absSession {
			o = newOracle(e.abs.Active())
		}
		for _, sw := range leg.sweeps {
			x, err := expect(o, sw.scenarios)
			if err != nil {
				return nil, err
			}
			exps[li] = append(exps[li], x)
		}
		for _, d := range leg.results {
			rep.attempted++
			if !d.res.ok || checkSweep(rep.checks, "telco "+leg.sess+" sweep", leg.sweeps[d.sw], exps[li][d.sw], d.res) != nil {
				rep.failed++
			}
		}
	}
	var origVals, absVals [][]float64
	for i := range origSw {
		origVals = append(origVals, exps[0][i].vals...)
		absVals = append(absVals, exps[1][i].vals...)
	}
	rep.endToEnd(e, setupS, heap, &lat, &sweeps, &legs[0].m, &legs[1].m, meanRelErr(origVals, absVals))
	return rep, nil
}

// sweepScenarios lists every scenario the sweeps generate.
func sweepScenarios(sws []sweep) []map[string]float64 {
	var out []map[string]float64
	for _, sw := range sws {
		out = append(out, sw.scenarios...)
	}
	return out
}
