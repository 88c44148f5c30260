package server

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"provabs/internal/abstree"
	"provabs/internal/provenance"
	"provabs/internal/registry"
	"provabs/internal/session"
)

// The response line shapes, as a client decodes them.
type (
	answerJSON struct {
		Tag   string `json:"tag"`
		Value any    `json:"value"`
	}
	streamLine struct {
		Index   int          `json:"index"`
		Answers []answerJSON `json:"answers"`
		Error   string       `json:"error"`
	}
	queryStreamHeader struct {
		Semiring  string `json:"semiring"`
		Scenarios int64  `json:"scenarios"`
	}
	queryRowJSON struct {
		Index   int64        `json:"index"`
		Answers []answerJSON `json:"answers"`
		Error   string       `json:"error"`
	}
	ackLine struct {
		Index int    `json:"index"`
		Error string `json:"error"`
	}
)

// testSet builds the one-polynomial set used across the server tests; its
// months m1/m3 abstract into q1 under testForest.
func testSet(t *testing.T) *provenance.Set {
	t.Helper()
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("zip 10001", provenance.MustParse(vb,
		"220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3"))
	return set
}

func testForest(t *testing.T) *abstree.Forest {
	t.Helper()
	forest, err := abstree.NewForest(abstree.MustParseTree("Year(q1(m1,m3))"))
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

// newRegistryServer starts a server over a fresh registry with no sessions.
func newRegistryServer(t *testing.T, opts ...Option) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New()
	ts := httptest.NewServer(New(reg, opts...).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

// newTestServer starts a server whose registry holds one default session
// named "default" — the shape the legacy unversioned routes alias onto.
func newTestServer(t *testing.T) (*httptest.Server, *session.Engine) {
	t.Helper()
	ts, reg := newRegistryServer(t)
	sess, err := reg.Create("default", testSet(t), testForest(t))
	if err != nil {
		t.Fatal(err)
	}
	return ts, sess.Engine()
}

func TestWhatIfEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/whatif", "application/json",
		strings.NewReader(`{"assign":{"m1":0.5,"m3":0.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Answers []struct {
			Tag   string  `json:"tag"`
			Value float64 `json:"value"`
		} `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Answers) != 1 || body.Answers[0].Tag != "zip 10001" {
		t.Fatalf("answers = %+v, want one for zip 10001", body.Answers)
	}
	want := (220.8 + 240 + 127.4 + 114.45) * 0.5
	if got := body.Answers[0].Value; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("value = %v, want %v", got, want)
	}
}

// TestNaNAnswer: +Inf plus -Inf makes the answer NaN, which encoding/json
// refuses to encode. It must come out as the string "NaN" — on the one-shot
// endpoint instead of an empty 200, and on a stream without losing the
// answer to the next scenario.
func TestNaNAnswer(t *testing.T) {
	ts, _ := newTestServer(t)
	const nan = `{"assign":{"p1":1e300,"m1":1e300,"f1":-1e300}}`
	resp, err := http.Post(ts.URL+"/v1/sessions/default/whatif", "application/json", strings.NewReader(nan))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"answers":[{"tag":"zip 10001","value":"NaN"}]}` + "\n"; resp.StatusCode != http.StatusOK || string(body) != want {
		t.Fatalf("whatif = %d %q, want 200 %q", resp.StatusCode, body, want)
	}

	resp, err = http.Post(ts.URL+"/v1/sessions/default/whatif/stream", "application/x-ndjson",
		strings.NewReader(nan+"\n"+`{"assign":{"p1":2}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []streamLine
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		var l streamLine
		if err := json.Unmarshal(scan.Bytes(), &l); err != nil {
			t.Fatalf("bad response line %q: %v", scan.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 2 {
		t.Fatalf("stream answered %d lines, want 2: %+v", len(lines), lines)
	}
	if l := lines[0]; l.Index != 0 || len(l.Answers) != 1 || l.Answers[0].Value != "NaN" {
		t.Errorf("line 0 = %+v, want the NaN answer", l)
	}
	want := 2*220.8 + 2*240 + 127.4 + 114.45
	if l := lines[1]; l.Index != 1 || len(l.Answers) != 1 {
		t.Errorf("line 1 = %+v, want one answer", l)
	} else if got, ok := l.Answers[0].Value.(float64); !ok || math.Abs(got-want) > 1e-9 {
		t.Errorf("line 1 value = %v, want %v", l.Answers[0].Value, want)
	}
}

func TestWhatIfEndpointErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, body := range map[string]string{
		"malformed json":   `{"assign":`,
		"unknown variable": `{"assign":{"nope":1}}`,
	} {
		resp, err := http.Post(ts.URL+"/whatif", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestStreamEndpoint(t *testing.T) {
	ts, e := newTestServer(t)
	body := strings.Join([]string{
		`{"assign":{"m1":1,"m3":1}}`,
		``, // blank lines are skipped
		`{"assign":{"bogus":1}}`,
		`{"assign":{"m1":0,"m3":0}}`,
	}, "\n")
	resp, err := http.Post(ts.URL+"/whatif/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var lines []streamLine
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		var l streamLine
		if err := json.Unmarshal(scan.Bytes(), &l); err != nil {
			t.Fatalf("bad response line %q: %v", scan.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %+v", len(lines), lines)
	}
	if lines[0].Error != "" || lines[2].Error != "" {
		t.Errorf("valid scenarios errored: %+v", lines)
	}
	if lines[1].Error == "" {
		t.Error("unknown-variable line did not carry an error")
	}
	if lines[0].Index != 0 || lines[1].Index != 1 || lines[2].Index != 2 {
		t.Errorf("indices out of order: %+v", lines)
	}
	if got := lines[2].Answers[0].Value; got != 0.0 { // json decodes value as float64
		t.Errorf("zeroed scenario value = %v, want 0", got)
	}
	if st := e.Stats(); st.Compiles != 1 {
		t.Errorf("stream recompiled: Compiles = %d, want 1", st.Compiles)
	}
}

func TestStreamEndpointMalformedLine(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"assign":{"m1":1}}` + "\n" + `not json` + "\n" + `{"assign":{"m1":2}}`
	resp, err := http.Post(ts.URL+"/whatif/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		var l map[string]any
		if err := json.Unmarshal(scan.Bytes(), &l); err != nil {
			t.Fatalf("bad response line %q: %v", scan.Text(), err)
		}
		lines = append(lines, l)
	}
	// One good answer, then a terminal error line; the line after the
	// malformed one is not evaluated.
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %v", len(lines), lines)
	}
	if _, ok := lines[0]["answers"]; !ok {
		t.Errorf("first line carries no answers: %v", lines[0])
	}
	if msg, _ := lines[1]["error"].(string); !strings.Contains(msg, "bad scenario line") {
		t.Errorf("terminal line = %v, want bad-scenario error", lines[1])
	}
}

// flushCounter is a ResponseWriter that counts flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestStreamLinesFlushRule pins when streamLines flushes: not while results
// holds a further value, and, given an accepted count, not while an
// accepted input still awaits its line — so lines that trickle in one at a
// time behind inputs already read go out in one flush.
func TestStreamLinesFlushRule(t *testing.T) {
	encode := func(buf []byte, i int) []byte { return append(strconv.AppendInt(buf, int64(i), 10), '\n') }
	run := func(results <-chan int, accepted *atomic.Int64) *flushCounter {
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		wrote, err := streamLines(w, http.NewResponseController(w), results, accepted, encode)
		if err != nil || !wrote {
			t.Fatalf("streamLines = %v, %v; want true, nil", wrote, err)
		}
		if got := w.Body.String(); got != "0\n1\n2\n" {
			t.Fatalf("body = %q, want three lines", got)
		}
		return w
	}
	// One at a time through an unbuffered channel: results is always empty
	// when a line has just been written.
	trickle := func() <-chan int {
		ch := make(chan int)
		go func() {
			defer close(ch)
			for i := 0; i < 3; i++ {
				ch <- i
			}
		}()
		return ch
	}
	queued := make(chan int, 3)
	for i := 0; i < 3; i++ {
		queued <- i
	}
	close(queued)
	if w := run(queued, nil); w.flushes != 1 {
		t.Errorf("queued results: %d flushes, want 1", w.flushes)
	}
	if w := run(trickle(), nil); w.flushes != 3 {
		t.Errorf("trickled results: %d flushes, want 3", w.flushes)
	}
	var accepted atomic.Int64
	accepted.Store(3)
	if w := run(trickle(), &accepted); w.flushes != 1 {
		t.Errorf("trickled results behind 3 accepted inputs: %d flushes, want 1", w.flushes)
	}
	if ct := run(trickle(), &accepted).Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestCompressAndStatsEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/compress", "application/json",
		strings.NewReader(`{"bound":2,"strategy":"greedy"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status = %d, want 200", resp.StatusCode)
	}
	var comp struct {
		Strategy  string `json:"strategy"`
		Monomials int    `json:"monomials"`
		Adequate  bool   `json:"adequate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}
	if comp.Strategy != "greedy" || !comp.Adequate || comp.Monomials != 2 {
		t.Errorf("compress = %+v, want adequate greedy at 2 monomials", comp)
	}

	// The compression is visible in /stats and scenario answers.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st session.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Compressed || st.Strategy != "greedy" || st.Monomials != 2 {
		t.Errorf("stats = %+v, want compressed greedy at 2 monomials", st)
	}

	wresp, err := http.Post(ts.URL+"/whatif", "application/json",
		strings.NewReader(`{"assign":{"q1":0.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("whatif on meta-variable: status = %d, want 200", wresp.StatusCode)
	}

	// The evaluation-path counters surface on the wire: the what-if above is
	// accounted as exactly one delta or full evaluation.
	sresp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp2.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(sresp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"delta_evals", "full_evals", "sharded_evals", "stream_batches", "stream_max_batch"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/stats is missing %q: %v", key, raw)
		}
	}
	if raw["delta_evals"].(float64)+raw["full_evals"].(float64) != 1 {
		t.Errorf("delta_evals %v + full_evals %v != 1 evaluated scenario",
			raw["delta_evals"], raw["full_evals"])
	}

	// Bad strategy and bad JSON are 400s.
	for _, body := range []string{`{"bound":2,"strategy":"nope"}`, `{{`} {
		bresp, err := http.Post(ts.URL+"/compress", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		bresp.Body.Close()
		if bresp.StatusCode != http.StatusBadRequest {
			t.Errorf("compress %q: status = %d, want 400", body, bresp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

// newSemiringServer starts a server whose default session holds a set with
// natural coefficients — evaluable in every wire-selectable carrier (the
// fractional testSet coefficients are rejected by bool/count/tropical/
// minmax compilation).
func newSemiringServer(t *testing.T) (*httptest.Server, *session.Engine) {
	t.Helper()
	ts, reg := newRegistryServer(t)
	vb := provenance.NewVocab()
	set := provenance.NewSet(vb)
	set.Add("zip 10001", provenance.MustParse(vb,
		"2·p1·m1 + 3·p1·m3 + 4·f1·m1 + 5·f1·m3"))
	sess, err := reg.Create("default", set, testForest(t))
	if err != nil {
		t.Fatal(err)
	}
	return ts, sess.Engine()
}

func postWhatIf(t *testing.T, url, body string) (int, any) {
	t.Helper()
	resp, err := http.Post(url+"/whatif", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out struct {
		Answers []struct {
			Tag   string `json:"tag"`
			Value any    `json:"value"`
		} `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != 1 || out.Answers[0].Tag != "zip 10001" {
		t.Fatalf("answers = %+v, want one for zip 10001", out.Answers)
	}
	return resp.StatusCode, out.Answers[0].Value
}

// TestWhatIfSemirings drives the whatif endpoint through every
// wire-selectable carrier: the "semiring" request field picks the evaluation
// semiring, answers come back in that carrier's JSON shape, and the
// non-finite minmax identity rides the wire as the string "+Inf".
func TestWhatIfSemirings(t *testing.T) {
	ts, e := newSemiringServer(t)
	// 2·p1·m1 + 3·p1·m3 + 4·f1·m1 + 5·f1·m3 in each carrier.
	for name, tc := range map[string]struct {
		body string
		want any
	}{
		"bool deleted":    {`{"semiring":"bool","assign":{"m1":0,"m3":0}}`, false},
		"bool survives":   {`{"semiring":"bool","assign":{"m1":0,"m3":1}}`, true},
		"count":           {`{"semiring":"count","assign":{"m1":2,"m3":0}}`, 12.0}, // 2·2 + 4·2
		"tropical":        {`{"semiring":"tropical","assign":{"m1":1,"m3":2}}`, 1.0},
		"minmax":          {`{"semiring":"minmax","assign":{"m1":3,"m3":7}}`, 7.0},
		"minmax identity": {`{"semiring":"minmax","assign":{}}`, "+Inf"},
		"float default":   {`{"assign":{"m1":1,"m3":1}}`, 14.0},
	} {
		status, got := postWhatIf(t, ts.URL, tc.body)
		if status != http.StatusOK {
			t.Errorf("%s: status = %d, want 200", name, status)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: value = %v (%T), want %v", name, got, got, tc.want)
		}
	}
	// Per-carrier accounting surfaces in Stats.
	st := e.Stats()
	for _, kind := range []string{"bool", "count", "tropical", "minmax"} {
		if st.Semirings[kind].Scenarios == 0 {
			t.Errorf("Stats.Semirings[%q].Scenarios = 0, want > 0", kind)
		}
	}
	if _, ok := st.Semirings["float"]; ok {
		t.Error("float accounting leaked into Stats.Semirings")
	}
}

// TestWhatIfSemiringErrors covers the two request-level failures: an unknown
// semiring name, and a carrier the session's provenance cannot compile into
// (fractional coefficients under the natural-coefficient carriers).
func TestWhatIfSemiringErrors(t *testing.T) {
	ts, _ := newTestServer(t) // fractional coefficients (220.8, …)
	for name, body := range map[string]string{
		"unknown semiring":       `{"semiring":"galois","assign":{"m1":1}}`,
		"fractional under count": `{"semiring":"count","assign":{"m1":1}}`,
		"fractional under bool":  `{"semiring":"bool","assign":{"m1":1}}`,
		"bad value under count":  `{"semiring":"count","assign":{"m1":0.5}}`,
	} {
		resp, err := http.Post(ts.URL+"/whatif", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestStreamEndpointSemiring streams scenarios under ?semiring=: answers
// arrive in the carrier's shape, per-scenario errors stay in-band, and the
// float accounting is untouched.
func TestStreamEndpointSemiring(t *testing.T) {
	ts, e := newSemiringServer(t)
	body := strings.Join([]string{
		`{"assign":{"m1":0,"m3":0}}`,
		`{"assign":{"bogus":1}}`,
		`{"assign":{"m1":0,"m3":1}}`,
	}, "\n")
	resp, err := http.Post(ts.URL+"/whatif/stream?semiring=bool", "application/x-ndjson",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var lines []streamLine
	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		var l streamLine
		if err := json.Unmarshal(scan.Bytes(), &l); err != nil {
			t.Fatalf("bad response line %q: %v", scan.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %+v", len(lines), lines)
	}
	if got := lines[0].Answers[0].Value; got != false {
		t.Errorf("deleted scenario = %v, want false", got)
	}
	if lines[1].Error == "" {
		t.Error("unknown-variable line did not carry an in-band error")
	}
	if got := lines[2].Answers[0].Value; got != true {
		t.Errorf("surviving scenario = %v, want true", got)
	}
	st := e.Stats()
	if st.Semirings["bool"].Scenarios != 2 {
		t.Errorf("bool scenarios = %d, want 2", st.Semirings["bool"].Scenarios)
	}
	if st.Scenarios != 0 {
		t.Errorf("float scenario counter = %d, want 0", st.Scenarios)
	}
}

// TestStreamEndpointSemiringRejected: an unknown ?semiring= fails the whole
// stream up front with a 400.
func TestStreamEndpointSemiringRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/whatif/stream?semiring=nope", "application/x-ndjson",
		strings.NewReader(`{"assign":{"m1":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}
