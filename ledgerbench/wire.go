package main

// The client side of the wire: full-duplex NDJSON streams over raw
// connections, and a parser that turns an answer line into a digest the
// checker compares against the oracle.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
)

// stream is one NDJSON request whose body is sent in chunks while the
// response is read. net/http's client sends the whole body before it reads
// the response; a streaming client has to interleave the two, so this one
// speaks HTTP/1.1 over its own connection. One goroutine may send while
// another reads.
type stream struct {
	conn      net.Conn
	bw        *bufio.Writer
	path      string
	br        *bufio.Reader
	body      io.ReadCloser
	sentBytes int64 // request payload bytes
	readBytes int64 // response payload bytes
}

func openStream(baseURL, path string) (*stream, error) {
	conn, err := net.Dial("tcp", strings.TrimPrefix(baseURL, "http://"))
	if err != nil {
		return nil, err
	}
	s := &stream{conn: conn, bw: bufio.NewWriterSize(conn, 64<<10), path: path}
	fmt.Fprintf(s.bw, "POST %s HTTP/1.1\r\nHost: ledgerbench\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n", path)
	return s, nil
}

// send writes p as one chunk and flushes it.
func (s *stream) send(p []byte) error {
	fmt.Fprintf(s.bw, "%x\r\n", len(p))
	s.bw.Write(p)
	s.bw.WriteString("\r\n")
	s.sentBytes += int64(len(p))
	return s.bw.Flush()
}

// closeSend ends the request body.
func (s *stream) closeSend() error {
	s.bw.WriteString("0\r\n\r\n")
	return s.bw.Flush()
}

// readLine returns the next response line; the slice is valid until the
// next call. The response header is read on the first call, since the
// server sends it only with its first answer.
func (s *stream) readLine() ([]byte, error) {
	if s.br == nil {
		req, _ := http.NewRequest(http.MethodPost, s.path, nil)
		resp, err := http.ReadResponse(bufio.NewReader(s.conn), req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return nil, fmt.Errorf("%s: status %d: %s", s.path, resp.StatusCode, bytes.TrimSpace(msg))
		}
		s.body = resp.Body
		s.br = bufio.NewReaderSize(resp.Body, 1<<20)
	}
	line, err := s.br.ReadSlice('\n')
	s.readBytes += int64(len(line))
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%s: reading a response line: %w", s.path, err)
	}
	return line, nil
}

// finish reads the response to its end and closes the connection,
// reporting how many lines were left unread.
func (s *stream) finish() int {
	extra := 0
	if s.br != nil {
		for {
			if _, err := s.readLine(); err != nil {
				break
			}
			extra++
		}
		s.body.Close()
	}
	s.conn.Close()
	return extra
}

// row is one parsed answer line: its index (-1 when the line has none),
// the number of answers and their digest, or the in-band error.
type row struct {
	index  int64
	n      int
	digest uint64
	err    string
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mixString[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// mixAnswer folds one (tag, value) answer into a digest: the tag's bytes, a
// separator, then the value's IEEE-754 bits. Two rows digest alike only if
// every tag and every bit of every value agree.
func mixAnswer[S string | []byte](h uint64, tag S, v float64) uint64 {
	h = (mixString(h, tag) ^ 0xff) * fnvPrime
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h = (h ^ (bits & 0xff)) * fnvPrime
		bits >>= 8
	}
	return h
}

// digestOf digests the first n answers of a full answer vector.
func digestOf(tags []string, vals []float64, n int) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < n; i++ {
		h = mixAnswer(h, tags[i], vals[i])
	}
	return h
}

// parseRow reads an answer line as the server writes it —
// {"index":i,"answers":[{"tag":t,"value":v},…]} with optional "assign",
// or {"index":i,"error":e} — without reflection, so the client's share of
// a scenario stays small next to the server's. Lines of another shape go
// through encoding/json.
func parseRow(line []byte) (row, error) {
	if r, ok := fastRow(line); ok {
		return r, nil
	}
	var doc struct {
		Index   *int64 `json:"index"`
		Answers []struct {
			Tag   string  `json:"tag"`
			Value float64 `json:"value"`
		} `json:"answers"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(line, &doc); err != nil {
		return row{}, fmt.Errorf("unparseable answer line %.120q: %w", line, err)
	}
	r := row{index: -1, n: len(doc.Answers), err: doc.Error, digest: fnvOffset}
	if doc.Index != nil {
		r.index = *doc.Index
	}
	for _, a := range doc.Answers {
		r.digest = mixAnswer(r.digest, a.Tag, a.Value)
	}
	return r, nil
}

func fastRow(b []byte) (row, bool) {
	r := row{index: -1, digest: fnvOffset}
	i := 0
	expect := func(lit string) bool {
		if !bytes.HasPrefix(b[i:], []byte(lit)) {
			return false
		}
		i += len(lit)
		return true
	}
	// str reads a JSON string without escapes, returning its contents.
	str := func() ([]byte, bool) {
		if i >= len(b) || b[i] != '"' {
			return nil, false
		}
		j := bytes.IndexByte(b[i+1:], '"')
		if j < 0 {
			return nil, false
		}
		s := b[i+1 : i+1+j]
		if bytes.IndexByte(s, '\\') >= 0 {
			return nil, false
		}
		i += j + 2
		return s, true
	}
	// scalar reads up to the next ',' '}' or ']'.
	scalar := func() []byte {
		j := i
		for j < len(b) && b[j] != ',' && b[j] != '}' && b[j] != ']' {
			j++
		}
		s := b[i:j]
		i = j
		return s
	}
	if !expect("{") {
		return r, false
	}
	for {
		key, ok := str()
		if !ok || !expect(":") {
			return r, false
		}
		switch string(key) {
		case "index":
			n, err := strconv.ParseInt(string(scalar()), 10, 64)
			if err != nil {
				return r, false
			}
			r.index = n
		case "error":
			msg, ok := str()
			if !ok {
				return r, false
			}
			r.err = string(msg)
		case "assign":
			j := bytes.IndexByte(b[i:], '}')
			if j < 0 {
				return r, false
			}
			i += j + 1
		case "answers":
			if !expect("[") {
				return r, false
			}
			for !expect("]") {
				if r.n > 0 && !expect(",") {
					return r, false
				}
				if !expect(`{"tag":`) {
					return r, false
				}
				tag, ok := str()
				if !ok || !expect(`,"value":`) {
					return r, false
				}
				v, err := strconv.ParseFloat(string(scalar()), 64)
				if err != nil || !expect("}") {
					return r, false
				}
				r.digest = mixAnswer(r.digest, tag, v)
				r.n++
			}
		default:
			return r, false
		}
		if expect("}") {
			return r, true
		}
		if !expect(",") {
			return r, false
		}
	}
}
