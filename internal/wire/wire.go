// Package wire is the NDJSON codec of the what-if service: every answer,
// query row, add ack and error line the server, the gateway and the CLI
// write goes through it. Lines are appended to a caller-owned buffer, so a
// stream encodes into one reused slice with no reflection and no
// per-answer allocation.
//
// The bytes are those encoding/json would produce for the same documents
// (an Encoder with its default HTML escaping), with one extension for the
// values JSON cannot carry as numbers: a non-finite answer is the string
// "+Inf", "-Inf" or "NaN". Answer values are the evaluation carriers —
// float64, bool and int64.
package wire

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"

	"provabs/internal/hypo"
)

// appendString appends s as a JSON string. Plain printable ASCII takes the
// fast path; anything that needs escaping is deferred to encoding/json.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendFloat appends f as encoding/json does — shortest form, %f for
// mid-range exponents, %e otherwise with the exponent's leading zero
// stripped — and the non-finite values as the strings "+Inf", "-Inf" and
// "NaN".
func appendFloat(buf []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(buf, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(buf, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(buf, `"-Inf"`...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// appendValue appends one carrier value. A type outside the carriers falls
// back to encoding/json (null if even that fails), so a new carrier can
// never corrupt the line framing.
func appendValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case float64:
		return appendFloat(buf, x)
	case bool:
		return strconv.AppendBool(buf, x)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return append(buf, "null"...)
	}
	return append(buf, raw...)
}

// appendAnswers appends [{"tag":…,"value":…},…].
func appendAnswers(buf []byte, answers []hypo.ValueAnswer) []byte {
	buf = append(buf, '[')
	for i, a := range answers {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"tag":`...)
		buf = appendString(buf, a.Tag)
		buf = append(buf, `,"value":`...)
		buf = appendValue(buf, a.Value)
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

// appendAssign appends a scenario's assignments as a JSON object with
// sorted keys, the order encoding/json gives a map.
func appendAssign(buf []byte, assign map[string]float64) []byte {
	names := make([]string, 0, len(assign))
	for name := range assign {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = append(buf, '{')
	for i, name := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendString(buf, name)
		buf = append(buf, ':')
		buf = appendFloat(buf, assign[name])
	}
	return append(buf, '}')
}

// AppendAnswers appends the one-shot what-if response line
// {"answers":[…]}.
func AppendAnswers(buf []byte, answers []hypo.ValueAnswer) []byte {
	buf = append(buf, `{"answers":`...)
	buf = appendAnswers(buf, answers)
	return append(buf, "}\n"...)
}

// Row is one scenario's outcome: its index, the assignments that generated
// it (query rows only), and its answers or its in-band error.
type Row struct {
	Index   int64
	Assign  map[string]float64
	Answers []hypo.ValueAnswer
	Err     error
}

// appendRow appends {"index":i[,"assign":{…}][,"answers":[…]][,"error":…]};
// empty members are left out.
func appendRow(buf []byte, r Row) []byte {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, r.Index, 10)
	if len(r.Assign) > 0 {
		buf = append(buf, `,"assign":`...)
		buf = appendAssign(buf, r.Assign)
	}
	if r.Err != nil {
		if msg := r.Err.Error(); msg != "" {
			buf = append(buf, `,"error":`...)
			buf = appendString(buf, msg)
		}
	} else if len(r.Answers) > 0 {
		buf = append(buf, `,"answers":`...)
		buf = appendAnswers(buf, r.Answers)
	}
	return append(buf, '}')
}

// AppendRow appends r as one NDJSON line: a what-if stream answer, or a
// query stream row when r carries its assignments.
func AppendRow(buf []byte, r Row) []byte {
	return append(appendRow(buf, r), '\n')
}

// Query is the header of a ScenQL result: the carrier and how many
// scenarios the statement generates. The non-streaming document adds the
// rows and the error and truncation summary.
type Query struct {
	Semiring  string
	Scenarios int64
	Rows      []Row
	Errors    int64
	Truncated bool
}

// AppendQueryHeader appends the first line of a query stream,
// {"semiring":…,"scenarios":n}.
func AppendQueryHeader(buf []byte, q Query) []byte {
	return append(appendQueryHeader(buf, q), "}\n"...)
}

func appendQueryHeader(buf []byte, q Query) []byte {
	buf = append(buf, `{"semiring":`...)
	buf = appendString(buf, q.Semiring)
	buf = append(buf, `,"scenarios":`...)
	return strconv.AppendInt(buf, q.Scenarios, 10)
}

// AppendQuery appends the non-streaming query document: the header's
// members, every row, then "errors" and "truncated" when set.
func AppendQuery(buf []byte, q Query) []byte {
	buf = appendQueryHeader(buf, q)
	buf = append(buf, `,"rows":[`...)
	for i, r := range q.Rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendRow(buf, r)
	}
	buf = append(buf, ']')
	if q.Errors != 0 {
		buf = append(buf, `,"errors":`...)
		buf = strconv.AppendInt(buf, q.Errors, 10)
	}
	if q.Truncated {
		buf = append(buf, `,"truncated":true`...)
	}
	return append(buf, "}\n"...)
}

// AppendAck appends one add acknowledgement line, {"index":i} or, for a
// line that was not applied, {"index":i,"error":…}.
func AppendAck(buf []byte, index int, errMsg string) []byte {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(index), 10)
	if errMsg != "" {
		buf = append(buf, `,"error":`...)
		buf = appendString(buf, errMsg)
	}
	return append(buf, "}\n"...)
}

// AppendError appends an error line, {"error":…}: the body of every error
// response, and the in-band terminal line of a stream that cannot go on.
func AppendError(buf []byte, msg string) []byte {
	buf = append(buf, `{"error":`...)
	buf = appendString(buf, msg)
	return append(buf, "}\n"...)
}
