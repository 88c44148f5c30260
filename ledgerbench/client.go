package main

// Closed-loop clients. Each drives one connection and waits for what it
// asked before asking more; no workload uses more than two client
// goroutines or connections at a time.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// streamed is the outcome of one what-if stream.
type streamed struct {
	rows      []got
	failed    int // answers missing or in error
	dur       time.Duration
	reqBytes  int64
	respBytes int64
}

func sessionPath(name, verb string) string { return "/v1/sessions/" + name + "/" + verb }

// pipelineChunk is how many request lines a pipelined stream sends at once.
const pipelineChunk = 256

// pipelined sends the scenarios ids as one what-if stream — one goroutine
// writing chunks of pipelineChunk lines, another reading answers as they
// arrive — and returns once every answer is in.
func pipelined(baseURL, sess string, lines [][]byte, ids []int) streamed {
	start := time.Now()
	out := streamed{}
	s, err := openStream(baseURL, sessionPath(sess, "whatif/stream"))
	if err != nil {
		out.failed = len(ids)
		return out
	}
	werr := make(chan error, 1)
	go func() {
		var buf []byte
		for i, id := range ids {
			buf = append(buf, lines[id]...)
			if (i+1)%pipelineChunk == 0 || i == len(ids)-1 {
				if err := s.send(buf); err != nil {
					werr <- err
					return
				}
				buf = buf[:0]
			}
		}
		werr <- s.closeSend()
	}()
	out.rows, out.failed = readAnswers(s, ids, len(ids))
	out.failed += s.finish()
	<-werr
	out.dur = time.Since(start)
	out.reqBytes, out.respBytes = s.sentBytes, s.readBytes
	return out
}

// readAnswers reads n answer lines of a what-if stream whose i-th line asked
// scenario ids[i]. It returns the answered rows and how many of the n are
// missing or carry an in-band error.
func readAnswers(s *stream, ids []int, n int) (rows []got, failed int) {
	rows = make([]got, 0, n)
	for k := 0; k < n; k++ {
		line, err := s.readLine()
		if err != nil {
			return rows, failed + n - k
		}
		r, err := parseRow(line)
		if err != nil || r.err != "" || r.index < 0 || r.index >= int64(len(ids)) {
			failed++
			continue
		}
		rows = append(rows, got{scn: ids[r.index], n: r.n, digest: r.digest})
	}
	return rows, failed
}

// oneShot posts one what-if and waits for its answer.
func oneShot(st *stack, baseURL, sess string, line []byte, scn int) (got, time.Duration, bool) {
	start := time.Now()
	status, body, err := st.post(baseURL+sessionPath(sess, "whatif"), line)
	d := time.Since(start)
	if err != nil || status != http.StatusOK {
		return got{}, d, false
	}
	r, err := parseRow(body)
	if err != nil || r.err != "" {
		return got{}, d, false
	}
	return got{scn: scn, n: r.n, digest: r.digest}, d, true
}

// swept is the outcome of one ScenQL sweep through /query/stream.
type swept struct {
	scenarios int64 // the header's count
	rows      []row
	dur       time.Duration
	ok        bool
	reqBytes  int64
	respBytes int64
}

// querySweep runs one statement through /query/stream and reads its rows.
func querySweep(client *http.Client, baseURL, sess, stmt string) swept {
	body, _ := json.Marshal(map[string]string{"query": stmt})
	out := swept{reqBytes: int64(len(body))}
	start := time.Now()
	resp, err := client.Post(baseURL+sessionPath(sess, "query/stream"), "application/json", bytes.NewReader(body))
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return out
	}
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	first := true
	for {
		line, err := br.ReadSlice('\n')
		out.respBytes += int64(len(line))
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil {
			return out
		}
		if first {
			var h struct {
				Scenarios int64 `json:"scenarios"`
			}
			if json.Unmarshal(line, &h) != nil {
				return out
			}
			out.scenarios, first = h.Scenarios, false
			continue
		}
		r, err := parseRow(line)
		if err != nil || r.err != "" {
			return out
		}
		out.rows = append(out.rows, r)
	}
	out.dur = time.Since(start)
	out.ok = !first
	return out
}

// checkSweep compares a sweep's rows with the oracle's answers to every
// scenario the statement generates: each row must carry its scenario's
// answers bit for bit, and together the rows must be the top ten by the
// ordering answer.
func checkSweep(c *checker, what string, sw sweep, e *expected, res swept) error {
	if res.scenarios != int64(len(sw.scenarios)) {
		c.failf("%s: %q: header says %d scenarios, the statement generates %d", what, sw.stmt, res.scenarios, len(sw.scenarios))
	}
	want := min(sweepTopK, len(sw.scenarios))
	if len(res.rows) != want {
		return fmt.Errorf("%d rows, want %d", len(res.rows), want)
	}
	var gotTop []float64
	for _, r := range res.rows {
		if r.index < 0 || r.index >= int64(len(sw.scenarios)) {
			c.failf("%s: row index %d out of range", what, r.index)
			continue
		}
		c.rowsFull(what, e, []got{{scn: int(r.index), n: r.n, digest: r.digest}})
		gotTop = append(gotTop, e.vals[r.index][sw.order])
	}
	all := make([]float64, len(sw.scenarios))
	for i := range all {
		all[i] = e.vals[i][sw.order]
	}
	wantTop := topValues(all, want)
	gotTop = topValues(gotTop, want)
	for i := range wantTop {
		if i >= len(gotTop) || gotTop[i] != wantTop[i] {
			c.failf("%s: %q: rows are not the top %d by ans[%d]", what, sw.stmt, want, sw.order)
			break
		}
	}
	return nil
}

// topValues returns the k largest of xs, largest first.
func topValues(xs []float64, k int) []float64 {
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[:min(k, len(s))]
}
