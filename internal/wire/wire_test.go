package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"provabs/internal/hypo"
)

// The reflective encoding the codec replaced: the same documents built
// from tagged structs and written by a json.Encoder, with the non-finite
// carrier values mapped to their strings first.
type (
	refAnswer struct {
		Tag   string `json:"tag"`
		Value any    `json:"value"`
	}
	refRow struct {
		Index   int64              `json:"index"`
		Assign  map[string]float64 `json:"assign,omitempty"`
		Answers []refAnswer        `json:"answers,omitempty"`
		Error   string             `json:"error,omitempty"`
	}
	refQuery struct {
		Semiring  string   `json:"semiring"`
		Scenarios int64    `json:"scenarios"`
		Rows      []refRow `json:"rows"`
		Errors    int64    `json:"errors,omitempty"`
		Truncated bool     `json:"truncated,omitempty"`
	}
	refHeader struct {
		Semiring  string `json:"semiring"`
		Scenarios int64  `json:"scenarios"`
	}
	refAck struct {
		Index int    `json:"index"`
		Error string `json:"error,omitempty"`
	}
)

func refValue(v any) any {
	if f, ok := v.(float64); ok && math.IsInf(f, 0) {
		if f > 0 {
			return "+Inf"
		}
		return "-Inf"
	}
	return v
}

func refAnswers(answers []hypo.ValueAnswer) []refAnswer {
	out := make([]refAnswer, len(answers))
	for i, a := range answers {
		out[i] = refAnswer{Tag: a.Tag, Value: refValue(a.Value)}
	}
	return out
}

func refRowOf(r Row) refRow {
	out := refRow{Index: r.Index, Assign: r.Assign}
	if r.Err != nil {
		out.Error = r.Err.Error()
	} else {
		out.Answers = refAnswers(r.Answers)
	}
	return out
}

func reflective(t testing.TB, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return b.String()
}

// nasty holds strings that need every kind of escaping encoding/json does.
var nasty = []string{
	"", "plain", `quote " inside`, `back\slash`, "<script>", "a&b", "line\u2028sep", "para\u2029sep",
	"bad utf8 \xff\xfe", "tab\tnew\nline", "ünïcode", "ctl\x01\x1f", "del\x7f",
}

func TestGoldenAgainstEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-7, 1e-6, 1e20, 1e21, 123456789.125,
		-0.30000000000000004, math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	}
	var answers []hypo.ValueAnswer
	for _, f := range floats {
		answers = append(answers, hypo.ValueAnswer{Tag: "f", Value: f})
	}
	for _, tag := range nasty {
		answers = append(answers, hypo.ValueAnswer{Tag: tag, Value: 1.5})
	}
	answers = append(answers,
		hypo.ValueAnswer{Tag: "bool", Value: true},
		hypo.ValueAnswer{Tag: "bool", Value: false},
		hypo.ValueAnswer{Tag: "count", Value: int64(0)},
		hypo.ValueAnswer{Tag: "count", Value: int64(-7)},
		hypo.ValueAnswer{Tag: "count", Value: int64(math.MaxInt64)},
	)

	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", what, got, want)
		}
	}
	check("answers", string(AppendAnswers(nil, answers)),
		reflective(t, map[string]any{"answers": refAnswers(answers)}))
	check("empty answers", string(AppendAnswers(nil, nil)),
		reflective(t, map[string]any{"answers": refAnswers(nil)}))

	rows := []Row{
		{Index: 0, Answers: answers},
		{Index: 1},
		{Index: 2, Answers: []hypo.ValueAnswer{}},
		{Index: 3, Assign: map[string]float64{"m1": 0.5, "b": -1e-7, "a&<>": 1e21}, Answers: answers[:3]},
		{Index: 4, Assign: map[string]float64{}},
		{Index: math.MaxInt64, Err: errors.New("")},
	}
	for _, msg := range nasty {
		rows = append(rows, Row{Index: 5, Err: errors.New(msg)},
			Row{Index: 6, Assign: map[string]float64{msg: 1}, Err: errors.New(msg)})
	}
	for _, r := range rows {
		check("row", string(AppendRow(nil, r)), reflective(t, refRowOf(r)))
	}

	for _, q := range []Query{
		{Semiring: "float", Scenarios: 9},
		{Semiring: "tropical", Scenarios: 1 << 40, Rows: rows, Errors: 3, Truncated: true},
		{Semiring: `we"ird`, Scenarios: 0, Rows: []Row{}},
	} {
		ref := refQuery{Semiring: q.Semiring, Scenarios: q.Scenarios, Rows: []refRow{}, Errors: q.Errors, Truncated: q.Truncated}
		for _, r := range q.Rows {
			ref.Rows = append(ref.Rows, refRowOf(r))
		}
		check("query", string(AppendQuery(nil, q)), reflective(t, ref))
		check("query header", string(AppendQueryHeader(nil, q)),
			reflective(t, refHeader{Semiring: q.Semiring, Scenarios: q.Scenarios}))
	}

	for _, msg := range nasty {
		check("ack", string(AppendAck(nil, 12, msg)), reflective(t, refAck{Index: 12, Error: msg}))
		check("error", string(AppendError(nil, msg)), reflective(t, map[string]string{"error": msg}))
	}
}

// TestNonFinite pins the strings JSON numbers cannot carry, NaN included:
// encoding/json refuses NaN, which used to leave a response empty.
func TestNonFinite(t *testing.T) {
	got := string(AppendAnswers(nil, []hypo.ValueAnswer{
		{Tag: "a", Value: math.NaN()}, {Tag: "b", Value: math.Inf(1)}, {Tag: "c", Value: math.Inf(-1)},
	}))
	want := `{"answers":[{"tag":"a","value":"NaN"},{"tag":"b","value":"+Inf"},{"tag":"c","value":"-Inf"}]}` + "\n"
	if got != want {
		t.Fatalf("got %s want %s", got, want)
	}
}

// TestEncodeAssign pins the assign encoder byte for byte to encoding/json's
// map output across float forms and keys that need escaping.
func TestEncodeAssign(t *testing.T) {
	for _, assign := range []map[string]float64{
		{"m1": 0, "m3": 1},
		{"b": -0.30000000000000004, "a": 2.5, "zz": 1e21, "q": 3.2e-7},
		{"x": 1e-6, "y": 123456789.125, "neg": -7},
		{"weird \"key\"\\n": 1, "ünïcode": 2, "a<b&c>d": 3},
		{"single": 42},
		{},
	} {
		want, err := json.Marshal(assign)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendAssign(nil, assign); string(got) != string(want) {
			t.Errorf("appendAssign(%v) = %s, want %s", assign, got, want)
		}
	}
}

// TestOtherValueFallsBack keeps a value outside the carriers valid JSON.
func TestOtherValueFallsBack(t *testing.T) {
	if got := string(appendValue(nil, 3)); got != "3" {
		t.Errorf("int = %s", got)
	}
	if got := string(appendValue(nil, func() {})); got != "null" {
		t.Errorf("func = %s", got)
	}
}

// FuzzAnswerLine compares the codec with the reflective encoding on finite
// floats and arbitrary strings, for every line shape.
func FuzzAnswerLine(f *testing.F) {
	f.Add(int64(0), "zip 10001", 1.5, "m1", "", true, int64(3))
	f.Add(int64(-1), "<&>", 1e21, "a\u2028b", "unknown variable \"x\"", false, int64(-9))
	f.Add(int64(1<<40), "\xff", 5e-324, "", "\\", true, int64(0))
	f.Fuzz(func(t *testing.T, index int64, tag string, x float64, key, errMsg string, b bool, n int64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip()
		}
		answers := []hypo.ValueAnswer{{Tag: tag, Value: x}, {Tag: key, Value: b}, {Tag: errMsg, Value: n}}
		rows := []Row{
			{Index: index, Answers: answers},
			{Index: index, Assign: map[string]float64{key: x, tag: -x}, Answers: answers},
			{Index: index, Assign: map[string]float64{key: x}, Err: errors.New(errMsg)},
		}
		for _, r := range rows {
			if got, want := string(AppendRow(nil, r)), reflective(t, refRowOf(r)); got != want {
				t.Fatalf("row:\n got %s\nwant %s", got, want)
			}
		}
		if got, want := string(AppendAnswers(nil, answers)), reflective(t, map[string]any{"answers": refAnswers(answers)}); got != want {
			t.Fatalf("answers:\n got %s\nwant %s", got, want)
		}
		if got, want := string(AppendAck(nil, int(index), errMsg)), reflective(t, refAck{Index: int(index), Error: errMsg}); got != want {
			t.Fatalf("ack:\n got %s\nwant %s", got, want)
		}
		if got, want := string(AppendError(nil, errMsg)), reflective(t, map[string]string{"error": errMsg}); got != want {
			t.Fatalf("error:\n got %s\nwant %s", got, want)
		}
		q := Query{Semiring: tag, Scenarios: n, Rows: rows, Errors: index, Truncated: b}
		ref := refQuery{Semiring: tag, Scenarios: n, Rows: []refRow{}, Errors: index, Truncated: b}
		for _, r := range rows {
			ref.Rows = append(ref.Rows, refRowOf(r))
		}
		if got, want := string(AppendQuery(nil, q)), reflective(t, ref); got != want {
			t.Fatalf("query:\n got %s\nwant %s", got, want)
		}
	})
}
