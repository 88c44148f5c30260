package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// rawStream is one chunked what-if stream on its own connection. net/http's
// client sends the whole request body before it reads the response; an
// interactive client has to send a line, wait for its answer, then send the
// next, so this one speaks HTTP/1.1 itself.
type rawStream struct {
	conn net.Conn
	path string
	body *bufio.Reader
}

func openRawStream(t *testing.T, base, path string) *rawStream {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	// The watchdog: an answer held back fails the read below instead of
	// hanging the test.
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n", path); err != nil {
		t.Fatal(err)
	}
	return &rawStream{conn: conn, path: path}
}

// send writes line as one chunk.
func (s *rawStream) send(t *testing.T, line string) {
	t.Helper()
	if _, err := fmt.Fprintf(s.conn, "%x\r\n%s\r\n", len(line), line); err != nil {
		t.Fatal(err)
	}
}

// readLine returns the next response line; the response header is read on
// the first call, since the server sends it with its first answer.
func (s *rawStream) readLine(t *testing.T) string {
	t.Helper()
	if s.body == nil {
		req, _ := http.NewRequest(http.MethodPost, s.path, nil)
		resp, err := http.ReadResponse(bufio.NewReader(s.conn), req)
		if err != nil {
			t.Fatalf("reading the response header: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		t.Cleanup(func() { resp.Body.Close() })
		s.body = bufio.NewReader(resp.Body)
	}
	line, err := s.body.ReadString('\n')
	if err != nil {
		t.Fatalf("reading an answer line: %v (%q so far)", err, line)
	}
	return line
}

// TestGatewayInteractiveStream plays the interactive what-if loop — send
// one scenario, wait for its answer, only then send the next — straight to
// a backend and through the gateway. The server flushes when no further
// answer is ready, so each answer must arrive while the client holds its
// next line back.
func TestGatewayInteractiveStream(t *testing.T) {
	b := newPoolBackend(t)
	_, gw := newTestGateway(t, Options{}, b)
	if resp := createSession(t, gw.URL, "s", ""); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	for _, base := range []struct{ name, url string }{{"serve", b.ts.URL}, {"gateway", gw.URL}} {
		t.Run(base.name, func(t *testing.T) {
			s := openRawStream(t, base.url, "/v1/sessions/s/whatif/stream")
			for i := 0; i < 8; i++ {
				s.send(t, fmt.Sprintf(`{"assign":{"m1":%d}}`+"\n", i))
				var got struct {
					Index   int `json:"index"`
					Answers []struct {
						Value float64 `json:"value"`
					} `json:"answers"`
				}
				line := s.readLine(t)
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatalf("round %d: bad line %q: %v", i, line, err)
				}
				want := 220.8*float64(i) + 240 + 127.4*float64(i) + 114.45
				if got.Index != i || len(got.Answers) != 1 || math.Abs(got.Answers[0].Value-want) > 1e-9 {
					t.Fatalf("round %d: answer %q, want index %d value %v", i, line, i, want)
				}
			}
			if _, err := io.WriteString(s.conn, "0\r\n\r\n"); err != nil {
				t.Fatal(err)
			}
			if rest, err := io.ReadAll(s.body); err != nil || len(rest) != 0 {
				t.Fatalf("after the last answer: %q, %v", rest, err)
			}
		})
	}
}
