package main

// telco-ingest: writes beside reads on durable telco sessions (an fsync per
// add, WAL and snapshots on local disk) through the gateway. One connection
// sends add lines and waits for each ack; a second streams sparse what-ifs
// on the same session. Rounds alternate between the original and the
// abstracted session, so adds into the abstraction (re-abstracted on the
// way in) are exercised as well. This is the path of durable's fsync,
// registry's Session.Add, the kernel's Compiled.Append and the gateway's
// add proxy, and it shows any read-path gain that costs the write path.
//
// The writer keeps a fixed pace: every add grows every later answer by
// one polynomial, so a writer as fast as the disk allows would make the
// read load depend on the write speed. At a fixed pace the sessions grow
// the same way in every run.

import (
	"math/rand"
	"sync"
	"time"
)

const (
	ingestPhase  = 250 * time.Millisecond // per session per round
	addPace      = 8 * time.Millisecond   // one add per pace, ack awaited
	ingestWindow = 16                     // what-ifs in flight on the reader
	ingestPool   = 2048                   // distinct what-ifs per seed
)

func runIngest(cfg *config) (*report, error) {
	rep := &report{checks: &checker{}}
	e, setupS, err := setUpRepeated(cfg, "telco", true, setupReps, rep.checks)
	if err != nil {
		return nil, err
	}
	defer e.st.close()
	heap := liveHeapMB()

	rng := rand.New(rand.NewSource(cfg.seed))
	pool := whatIfPool(rng, e.ds.set, ingestPool)
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
			traffic: windowTraffic(pool, lines, rng),
		})
	}

	adds := addLines(rng, e.ds.set, int((cfg.seconds+4*ingestPhase)/addPace))
	base := e.ds.set.Len()
	legs := []*ingestLeg{
		{sess: origSession, lines: lines},
		{sess: absSession, lines: absLines},
	}
	next := 0 // next add line
	deadline := time.Now().Add(cfg.seconds)
	for time.Now().Before(deadline) {
		for _, leg := range legs {
			leg.round(e.st.front.URL, adds, &next, rng)
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
	rep.checks.rowsPrefix("telco ingest what-if", exp, base, legs[0].rows)
	rep.checks.rowsPrefix("telco ingest abstracted what-if", absExp, base, legs[1].rows)
	for _, leg := range legs {
		eng := e.orig
		if leg.sess == absSession {
			eng = e.abs
		}
		if n := eng.Active().Len(); n != base+leg.acked {
			rep.checks.failf("session %s holds %d polynomials after %d acked adds to %d", leg.sess, n, leg.acked, base)
		}
		rep.attempted += leg.addsTried + leg.readsTried
		rep.failed += leg.adds.failed + leg.readsFailed
	}
	// The abstraction's accuracy is measured on the set as generated: the
	// two sessions received different adds.
	origBase := make([][]float64, len(exp.vals))
	absBase := make([][]float64, len(absExp.vals))
	for i := range exp.vals {
		origBase[i], absBase[i] = exp.vals[i][:base], absExp.vals[i][:base]
	}
	rep.endToEnd(e, setupS, heap, &legs[0].adds, &legs[0].writes, &legs[0].reads, &legs[1].reads, meanRelErr(origBase, absBase))
	return rep, nil
}

// ingestLeg accumulates one session's side of the ingest workload. The
// writer goroutine owns the add fields, the reader the read fields.
type ingestLeg struct {
	sess  string
	lines [][]byte

	adds      latencies
	writes    meter // acked adds per phase
	addsTried int64
	acked     int

	reads       meter // answered what-ifs per phase
	rows        []got
	readsTried  int64
	readsFailed int64
	readBytes   [2]int64 // request and response payload of the reader
}

// round runs one phase on the leg's session: the paced writer on one
// connection, the windowed what-if reader on another, both until the
// phase ends.
func (leg *ingestLeg) round(front string, adds [][]byte, next *int, rng *rand.Rand) {
	end := time.Now().Add(ingestPhase)
	acked := leg.acked
	leg.reads.start()
	leg.writes.start()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leg.write(front, adds, next, end)
	}()
	answered := leg.read(front, rng, end)
	wg.Wait()
	leg.reads.stop(answered)
	leg.writes.stop(leg.acked - acked)
}

// write sends add lines at the fixed pace, each ack awaited.
func (leg *ingestLeg) write(front string, adds [][]byte, next *int, end time.Time) {
	s, err := openStream(front, sessionPath(leg.sess, "add"))
	if err != nil {
		leg.adds.fail()
		leg.addsTried++
		return
	}
	defer s.finish()
	defer s.closeSend()
	for time.Now().Before(end) && *next < len(adds) {
		sent := time.Now()
		leg.addsTried++
		line := adds[*next]
		*next++
		err := s.send(line)
		var ack []byte
		if err == nil {
			ack, err = s.readLine()
		}
		d := time.Since(sent)
		if err != nil {
			leg.adds.fail()
			return
		}
		if r, err := parseRow(ack); err != nil || r.err != "" {
			leg.adds.fail()
		} else {
			leg.adds.ok(d)
			leg.acked++
		}
		time.Sleep(time.Until(sent.Add(addPace)))
	}
}

// read streams what-ifs with a window of ingestWindow in flight until the
// phase ends, returning how many were answered.
func (leg *ingestLeg) read(front string, rng *rand.Rand, end time.Time) int {
	s, err := openStream(front, sessionPath(leg.sess, "whatif/stream"))
	if err != nil {
		leg.readsTried++
		leg.readsFailed++
		return 0
	}
	defer func() {
		s.finish()
		leg.readBytes[0] += s.sentBytes
		leg.readBytes[1] += s.readBytes
	}()
	var ids []int
	answered := 0
	var buf []byte
	for time.Now().Before(end) {
		buf = buf[:0]
		for i := 0; i < ingestWindow; i++ {
			id := rng.Intn(len(leg.lines))
			ids = append(ids, id)
			buf = append(buf, leg.lines[id]...)
		}
		leg.readsTried += ingestWindow
		if s.send(buf) != nil {
			leg.readsFailed += ingestWindow
			return answered
		}
		rows, failed := readAnswers(s, ids, ingestWindow)
		leg.rows = append(leg.rows, rows...)
		leg.readsFailed += int64(failed)
		answered += len(rows)
		if failed > 0 {
			return answered
		}
	}
	s.closeSend()
	return answered
}
