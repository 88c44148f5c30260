package gateway

// The forwarding layer. Two shapes:
//
//   - proxyBuffered: request body already in memory (create, whose name
//     the gateway had to read; the one-shot verbs) or bodiless (info,
//     delete). Both sides fully buffered, which is what lets idempotent
//     calls retry with backoff (retry.go) behind the circuit breaker.
//
//   - proxyStream: everything else, including the NDJSON streams. The
//     inbound side is switched to full duplex (an HTTP/1 server otherwise
//     drains the request body before the first response write — the exact
//     deadlock the backend solves the same way), the request body streams
//     through to the backend while response bytes flow back, and every
//     chunk read from the backend is flushed immediately so per-line ack
//     latency survives the extra hop. The backend flushes when it has no
//     further line ready, so one chunk may carry several lines; the
//     gateway passes them on as they came. A backend that dies mid-stream
//     surfaces as an in-band {"error": …} terminal line — never a
//     silently hung client.
//
// Hop-by-hop headers are stripped both ways per RFC 9110 §7.6.1.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"provabs/internal/wire"
)

// hopHeaders never cross a proxy.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}

// outgoing builds the backend request mirroring the inbound one.
func (g *Gateway) outgoing(r *http.Request, b *backend, body io.Reader, length int64) (*http.Request, error) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, b.base+r.URL.RequestURI(), body)
	if err != nil {
		return nil, err
	}
	out.Header = make(http.Header, len(r.Header))
	copyHeaders(out.Header, r.Header)
	out.ContentLength = length
	return out, nil
}

// admit claims a backend proxy slot, answering 503 + Retry-After when the
// backend is saturated. The release func is nil when admission failed.
func (g *Gateway) admit(w http.ResponseWriter, b *backend) func() {
	if !b.acquire() {
		g.writeUnavailable(w, 1,
			fmt.Errorf("backend %s is at its in-flight limit (%d); retry shortly", b.addr, g.opts.MaxInflight))
		return nil
	}
	g.proxied.Add(1)
	return b.release
}

// proxyBuffered forwards a request whose body (possibly nil) is already
// in memory and copies the fully buffered response back. It rides the
// retrying round trip: idempotent calls may be attempted up to
// Retry.MaxAttempts times on transport failure, and because nothing is
// written to the client until a whole response is in hand, a retry can
// never fire after client-visible bytes. Returns the upstream status (0
// when every attempt failed, with the 502/503 already written).
func (g *Gateway) proxyBuffered(w http.ResponseWriter, r *http.Request, b *backend, body []byte, idempotent bool) (int, error) {
	release := g.admit(w, b)
	if release == nil {
		return 0, errSaturated
	}
	defer release()
	hdr := make(http.Header, len(r.Header))
	copyHeaders(hdr, r.Header)
	br, err := g.roundTrip(r.Context(), b, r.Method, b.base+r.URL.RequestURI(), hdr, body, idempotent)
	if err != nil {
		var open *errBreakerOpen
		if errors.As(err, &open) {
			g.writeUnavailable(w, retrySeconds(open.retryAfter), err)
			return 0, err
		}
		err = fmt.Errorf("gateway: %w", err)
		g.writeError(w, http.StatusBadGateway, err)
		return 0, err
	}
	br.write(w)
	return br.status, nil
}

var errSaturated = errors.New("backend saturated")

// proxyStream forwards a request end to end, streaming both directions.
// With stream=true the copy flushes per chunk and a mid-body backend
// failure is reported in-band; otherwise it behaves like a plain proxy
// that happens not to buffer.
func (g *Gateway) proxyStream(w http.ResponseWriter, r *http.Request, b *backend, stream bool) {
	release := g.admit(w, b)
	if release == nil {
		return
	}
	defer release()
	// Streams respect the breaker's verdict but never retry or time out:
	// they are long-lived by design.
	if ok, wait := b.breaker.allow(time.Now()); !ok {
		g.writeUnavailable(w, retrySeconds(wait), (&errBreakerOpen{addr: b.addr, retryAfter: wait}))
		return
	}
	rc := http.NewResponseController(w)
	if stream {
		// Respond while the request body is still streaming in (HTTP/2 is
		// duplex already and reports ErrNotSupported — safe to ignore).
		if err := rc.EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			g.opts.Logger.Printf("gateway: %s %s: full duplex: %v", r.Method, r.URL.Path, err)
		}
	}
	out, err := g.outgoing(r, b, r.Body, r.ContentLength)
	if err != nil {
		g.writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp, err := g.client.Do(out)
	if err != nil {
		g.suspect(b)
		g.writeError(w, http.StatusBadGateway, fmt.Errorf("gateway: backend %s: %w", b.addr, err))
		return
	}
	b.breaker.onSuccess()
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)

	buf := make([]byte, 32*1024)
	wrote := false
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				// Client went away; closing resp.Body (deferred) tears the
				// backend side down too.
				g.opts.Logger.Printf("gateway: %s %s via %s: client write: %v", r.Method, r.URL.Path, b.addr, werr)
				return
			}
			wrote = true
			if stream {
				if ferr := rc.Flush(); ferr != nil {
					g.opts.Logger.Printf("gateway: %s %s via %s: flush: %v", r.Method, r.URL.Path, b.addr, ferr)
					return
				}
			}
		}
		if rerr == io.EOF {
			return
		}
		if rerr != nil {
			// The backend died (or was killed) mid-stream. The status line is
			// long gone; for NDJSON surfaces the contract is an in-band
			// terminal error line so the client unblocks with a reason
			// instead of hanging on a half-open connection.
			g.suspect(b)
			g.opts.Logger.Printf("gateway: %s %s via %s: backend read: %v", r.Method, r.URL.Path, b.addr, rerr)
			if stream {
				line := wire.AppendError(nil, fmt.Sprintf("gateway: backend %s failed mid-stream: %v", b.addr, rerr))
				if _, werr := w.Write(line); werr == nil {
					rc.Flush() //nolint:errcheck // best effort: the conversation is over either way
				}
			} else if !wrote {
				g.writeError(w, http.StatusBadGateway, fmt.Errorf("gateway: backend %s: %v", b.addr, rerr))
			}
			return
		}
	}
}
