package gateway

// Queue-and-replay: zero-downtime writes across a live migration.
//
// PR 9's migration quiesced writes by answering 503 + Retry-After for the
// whole export→import window — correct, but it breaks exactly the
// interactive loop the system serves: an analyst streaming adds sees
// errors whenever the pool rebalances. This file removes the 503 from the
// happy path two ways:
//
//   - The add-ingestion stream is no longer a byte proxy. serveAddStream
//     understands the NDJSON line/ack protocol: it forwards client lines
//     to an upstream leg on the holding backend and relays acks back,
//     rewriting ack indices so the client's numbering survives the leg
//     changing. When a migration quiesces the session, the proxy detaches
//     from the old holder cleanly (half-close; every line the backend
//     received gets acked and is therefore in the export) and buffers
//     incoming lines in a bounded in-memory journal. After cutover it
//     attaches to the new holder, replays the journal in order (acks flow
//     to the client as the new backend applies them), and resumes. The
//     client sees added latency, never an error. If the journal fills,
//     the proxy stops reading the client's body — TCP backpressure, the
//     same degradation the tenant throttle uses — so the bound holds
//     without dropping lines.
//
//   - One-shot writes (compress, delete) park on a bounded per-session
//     queue instead of bouncing: awaitWritable blocks until the quiesce
//     lifts, then the request proceeds against the new holder. Only a
//     full queue or a parked wait outliving ParkTimeout degrades back to
//     503 + Retry-After — with the Retry-After derived from how long the
//     migration has actually been running, not a constant.
//
// The ack invariant is preserved end to end: an ack reaches the client
// only after the line was applied (and fsynced, when durable) on some
// backend whose state the migration carries forward. Lines sent to a leg
// that died before acking are NOT silently replayed — adds are not
// idempotent, and the line may or may not have been applied — so that
// (and only that) tears the stream with an in-band terminal error, the
// same contract a mid-stream backend death always had. Journaled lines
// were never handed to any backend, so replaying them is exact.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"provabs/internal/wire"
)

// addProxy states.
const (
	apAttached  = iota // forwarding lines to a live upstream leg
	apReplaying        // new leg attached; journal replay in flight
	apPausing          // detaching from the old leg (migration)
	apPaused           // no leg; journaling client lines
	apDone             // clean end: client EOF and every ack delivered
	apFailed           // terminal error sent (or being sent)
)

// maxDrainBytes bounds how much of an unread add-stream body the handler
// consumes before returning (see the drain comment in serveAddStream) —
// the same bound net/http itself uses for non-duplex handlers.
const maxDrainBytes = 256 << 10

// journalEntry is one buffered client line awaiting replay.
type journalEntry struct {
	index int // client-visible ack index
	line  []byte
}

// upstreamLeg is one gateway→backend add stream.
type upstreamLeg struct {
	b      *backend
	pw     *io.PipeWriter
	cancel context.CancelFunc
	done   chan struct{} // pump exited
	err    error         // pump outcome; nil = clean response EOF
	status int           // non-200 upstream status, when that was the failure
}

// addProxy is one client add stream being routed, possibly across a
// migration.
type addProxy struct {
	g         *Gateway
	name      string
	clientCtx context.Context

	// client-write side: serialized by wmu (ack pump vs terminal writer).
	wmu       sync.Mutex
	w         http.ResponseWriter
	rc        *http.ResponseController
	buf       []byte // line encoding buffer, reused under wmu
	anyWrite  bool
	termWrote bool

	mu           sync.Mutex
	cond         *sync.Cond
	state        int
	failErr      error
	failStatus   int // upstream HTTP status behind failErr, when there was one
	upstream     *upstreamLeg
	sending      bool // a forward() holds the pipe outside mu
	pending      []int
	journal      []journalEntry
	journalBytes int64
	clientEOF    bool
}

// ackMsg is a backend stream line: an ack ({"index":i[,"error":…]}) or a
// terminal error ({"error":…} with no index).
type ackMsg struct {
	Index *int   `json:"index"`
	Error string `json:"error,omitempty"`
}

// serveAddStream handles POST /v1/sessions/{name}/add at the gateway.
// The caller has already applied tenant limits and body throttling.
func (g *Gateway) serveAddStream(w http.ResponseWriter, r *http.Request, name string) {
	p := &addProxy{
		g:         g,
		name:      name,
		clientCtx: r.Context(),
		w:         w,
		rc:        http.NewResponseController(w),
	}
	p.cond = sync.NewCond(&p.mu)
	if err := p.rc.EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		g.opts.Logger.Printf("gateway: %s %s: full duplex: %v", r.Method, r.URL.Path, err)
	}
	// Every return below must reach the body's EOF (or a bound) while the
	// handler is still running: a full-duplex handler that returns with the
	// body part-read — an early 503, a failed leg — leaves the drain to the
	// server's post-handler Close, whose background read races the next
	// request's read on a reused keep-alive connection (net/http's "invalid
	// concurrent Body.Read call" panic). Same discipline as the backend's
	// stream handlers; skipped when the request is already being torn down.
	defer func() {
		if r.Context().Err() == nil {
			io.Copy(io.Discard, io.LimitReader(r.Body, maxDrainBytes)) //nolint:errcheck
		}
	}()

	// Registration and the quiesce check are one critical section: either
	// the in-flight migration's pause sweep sees this proxy, or this proxy
	// sees the quiesce and starts paused (resumed by unquiesce).
	g.mu.Lock()
	_, moving := g.moving[name]
	g.addProxies[name] = append(g.addProxies[name], p)
	g.mu.Unlock()
	defer g.unregisterAddProxy(name, p)

	p.mu.Lock()
	if moving {
		p.state = apPaused
	} else {
		b, err := g.route(name)
		if err != nil {
			p.mu.Unlock()
			g.writeUnavailable(w, 1, err)
			return
		}
		if !b.isHealthy() {
			p.mu.Unlock()
			g.writeUnavailable(w, g.probeRetrySeconds(b),
				fmt.Errorf("backend %s holding session %q is unhealthy; retry shortly", b.addr, name))
			return
		}
		if ok, wait := b.breaker.allow(time.Now()); !ok {
			p.mu.Unlock()
			g.writeUnavailable(w, retrySeconds(wait), (&errBreakerOpen{addr: b.addr, retryAfter: wait}))
			return
		}
		p.attachLocked(b, nil)
	}
	p.mu.Unlock()

	scan := bufio.NewScanner(r.Body)
	maxLine := int(g.opts.MaxLineBytes)
	bufCap := 64 * 1024
	if maxLine < bufCap {
		bufCap = maxLine
	}
	scan.Buffer(make([]byte, 0, bufCap), maxLine)

	index := -1
	for scan.Scan() {
		line := bytes.TrimSpace(scan.Bytes())
		if len(line) == 0 {
			continue
		}
		index++
		if err := p.forward(index, line); err != nil {
			break // terminal already sent (or client gone)
		}
	}
	if err := scan.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("add line exceeds the %d-byte limit", maxLine)
		}
		p.fail(fmt.Errorf("gateway: reading add stream: %v", err), 0)
		return
	}
	p.finish()
	// On failure the terminal error may have been chosen by another
	// goroutine (a dying leg's pump) that is still inside sendTerminal.
	// Re-sending from here is an idempotent no-op, but passing through the
	// write mutex guarantees that write has finished before this handler
	// returns — after which the ResponseWriter must not be touched.
	p.mu.Lock()
	failed := p.state == apFailed
	err, status := p.failErr, p.failStatus
	p.mu.Unlock()
	if failed {
		p.sendTerminal(err, status)
	}
}

// attachLocked opens a new upstream leg on b and queues replay (p.mu
// held). The leg's request runs under the client's context so a vanished
// client tears the whole chain down.
func (p *addProxy) attachLocked(b *backend, replay []journalEntry) {
	ctx, cancel := context.WithCancel(p.clientCtx)
	pr, pw := io.Pipe()
	leg := &upstreamLeg{b: b, pw: pw, cancel: cancel, done: make(chan struct{})}
	p.upstream = leg
	p.state = apReplaying

	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		b.base+"/v1/sessions/"+p.name+"/add", pr)
	if err != nil {
		// Only a malformed URL can land here; treat as a failed leg.
		leg.err = err
		close(leg.done)
		p.failLocked(err)
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	// The Do + ack pump. Do blocks until the backend's first response
	// write (its first ack), so it must run concurrently with line
	// forwarding.
	go func() {
		resp, derr := p.g.client.Do(req)
		if derr != nil {
			p.g.suspect(b)
			leg.err = fmt.Errorf("backend %s: %v", b.addr, derr)
			close(leg.done)
			p.legEnded(leg)
			return
		}
		b.breaker.onSuccess()
		p.pumpAcks(leg, resp)
	}()

	// Replay writer: journaled lines go down the new leg in order before
	// any fresh client line (forward waits out apReplaying).
	go func() {
		for _, e := range replay {
			p.mu.Lock()
			if p.state != apReplaying || p.upstream != leg {
				p.mu.Unlock()
				return
			}
			p.pending = append(p.pending, e.index)
			p.mu.Unlock()
			if _, werr := pw.Write(append(e.line, '\n')); werr != nil {
				// Never handed to a previous backend, but this leg broke
				// before accepting it: the line is unacked and in doubt now.
				p.fail(fmt.Errorf("gateway: replaying %d journaled line(s) to %s: %v", len(replay), b.addr, werr), 0)
				return
			}
			p.g.replayedLines.Add(1)
		}
		p.mu.Lock()
		if p.state == apReplaying && p.upstream == leg {
			p.state = apAttached
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}()
}

// pumpAcks relays backend stream lines to the client, rewriting ack
// indices through the pending FIFO.
func (p *addProxy) pumpAcks(leg *upstreamLeg, resp *http.Response) {
	defer resp.Body.Close()
	defer p.legEnded(leg)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		leg.status = resp.StatusCode
		leg.err = fmt.Errorf("backend %s refused the add stream: status %d: %s",
			leg.b.addr, resp.StatusCode, bytes.TrimSpace(msg))
		close(leg.done)
		return
	}
	scan := bufio.NewScanner(resp.Body)
	maxLine := int(p.g.opts.MaxLineBytes)
	scan.Buffer(make([]byte, 0, 4096), maxLine)
	for scan.Scan() {
		raw := bytes.TrimSpace(scan.Bytes())
		if len(raw) == 0 {
			continue
		}
		var msg ackMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			leg.err = fmt.Errorf("backend %s: undecodable ack line %q", leg.b.addr, raw)
			break
		}
		if msg.Index == nil {
			// In-band terminal from the backend (persistence failure, torn
			// input): the stream is over; relay verbatim.
			leg.err = fmt.Errorf("backend %s: %s", leg.b.addr, msg.Error)
			break
		}
		p.mu.Lock()
		if len(p.pending) == 0 {
			p.mu.Unlock()
			leg.err = fmt.Errorf("backend %s acked index %d with no line outstanding", leg.b.addr, *msg.Index)
			break
		}
		ci := p.pending[0]
		p.pending = p.pending[1:]
		p.mu.Unlock()
		if !p.writeAck(ci, msg.Error) {
			leg.err = errClientGone
			break
		}
	}
	if leg.err == nil {
		if err := scan.Err(); err != nil {
			p.g.suspect(leg.b)
			leg.err = fmt.Errorf("backend %s failed mid-stream: %v", leg.b.addr, err)
		}
	}
	close(leg.done)
}

var errClientGone = errors.New("client went away")

// legEnded arbitrates what a finished pump means. During a pause the
// pause() call owns the verdict; otherwise a clean EOF is only clean if
// the client had finished and every ack was delivered.
func (p *addProxy) legEnded(leg *upstreamLeg) {
	p.mu.Lock()
	if p.upstream != leg || p.state == apFailed || p.state == apDone {
		p.mu.Unlock()
		return
	}
	if p.state == apPausing {
		p.mu.Unlock()
		p.cond.Broadcast()
		return
	}
	if leg.err == nil && p.clientEOF && len(p.pending) == 0 {
		p.state = apDone
		p.cond.Broadcast()
		p.mu.Unlock()
		return
	}
	err := leg.err
	if err == nil {
		err = fmt.Errorf("backend %s ended the add stream early", leg.b.addr)
	}
	status := leg.status
	p.failStatus = status
	p.failLocked(err)
	p.mu.Unlock()
	p.sendTerminal(err, status)
}

// forward routes one client line: down the live leg, or into the bounded
// journal while paused. A full journal blocks — the caller stops reading
// the client's body, which is the graceful degradation (TCP backpressure)
// rather than a mid-stream error.
func (p *addProxy) forward(index int, line []byte) error {
	p.mu.Lock()
	for {
		switch p.state {
		case apFailed:
			err := p.failErr
			p.mu.Unlock()
			return err
		case apDone:
			p.mu.Unlock()
			return errors.New("stream already finished")
		case apAttached:
			leg := p.upstream
			p.pending = append(p.pending, index)
			p.sending = true
			p.mu.Unlock()
			_, werr := leg.pw.Write(append(line, '\n'))
			p.mu.Lock()
			p.sending = false
			p.cond.Broadcast()
			if werr == nil {
				p.mu.Unlock()
				return nil
			}
			// The pipe closed under the write: either a pause detached the
			// leg (state moved; the line never reached the backend — journal
			// it) or the leg died (fail).
			if n := len(p.pending); n > 0 && p.pending[n-1] == index {
				p.pending = p.pending[:n-1]
			}
			if p.state == apAttached {
				err := fmt.Errorf("gateway: backend %s dropped the add stream: %v", leg.b.addr, werr)
				p.failLocked(err)
				p.mu.Unlock()
				p.sendTerminal(err, 0)
				return err
			}
			// Loop: the state machine decides what happens to this line now.
		case apPaused:
			if len(p.journal) >= p.g.opts.JournalLines ||
				p.journalBytes+int64(len(line)) > p.g.opts.JournalBytes {
				p.g.journalStalls.Add(1)
				p.cond.Wait()
				continue
			}
			cp := append([]byte(nil), line...)
			p.journal = append(p.journal, journalEntry{index: index, line: cp})
			p.journalBytes += int64(len(cp))
			p.g.journaledLines.Add(1)
			p.g.noteJournalDepth(int64(len(p.journal)))
			p.mu.Unlock()
			return nil
		default: // apPausing, apReplaying: wait for the machine to settle
			p.cond.Wait()
		}
	}
}

// finish handles client EOF: every outstanding and journaled line must
// still resolve to an ack (or the terminal error) before the response
// ends. It waits out any in-flight migration.
func (p *addProxy) finish() {
	p.mu.Lock()
	p.clientEOF = true
	for {
		switch p.state {
		case apFailed, apDone:
			p.mu.Unlock()
			return
		case apAttached:
			leg := p.upstream
			p.mu.Unlock()
			leg.pw.Close() // clean EOF: backend acks everything it received, then ends
			p.mu.Lock()
			if p.state == apAttached && p.upstream == leg {
				p.cond.Wait() // legEnded (or a pause) moves the state
			}
		default: // paused / pausing / replaying: migration still in flight
			p.cond.Wait()
		}
	}
}

// pause detaches the proxy from its leg for a migration: half-close, then
// require every sent line's ack. On success the proxy is journaling; on
// failure (the backend died with lines in doubt) the stream is failed
// with the usual in-band terminal error — never silently replayed.
func (p *addProxy) pause(ctx context.Context) {
	p.mu.Lock()
	for p.state == apReplaying || p.state == apPausing {
		if !p.waitCtx(ctx) {
			break
		}
	}
	if p.state != apAttached {
		// paused / done / failed already — nothing to detach.
		p.mu.Unlock()
		return
	}
	p.state = apPausing
	p.cond.Broadcast()
	leg := p.upstream
	// A forward() blocked in the pipe write must complete (or break) before
	// the half-close, or the backend would see a torn line. The deadline
	// watchdog breaks a genuinely stalled leg.
	watchdog := time.AfterFunc(timeUntilDeadline(ctx), func() { leg.cancel() })
	for p.sending {
		if !p.waitCtx(ctx) {
			break
		}
	}
	p.mu.Unlock()
	leg.pw.Close()
	select {
	case <-leg.done:
	case <-ctx.Done():
		leg.cancel() // force the pump off the response
		<-leg.done
	}
	watchdog.Stop()

	p.mu.Lock()
	if p.state != apPausing { // failed in the meantime
		p.mu.Unlock()
		return
	}
	if leg.err == nil && len(p.pending) == 0 {
		p.upstream = nil
		p.state = apPaused
		p.cond.Broadcast()
		p.mu.Unlock()
		return
	}
	err := leg.err
	if err == nil {
		err = fmt.Errorf("backend %s left %d add line(s) unacknowledged at quiesce", leg.b.addr, len(p.pending))
	}
	p.failLocked(err)
	p.mu.Unlock()
	p.sendTerminal(err, 0)
}

// resume reattaches a paused proxy to the session's current holder and
// replays the journal. Called after cutover (or after a failed migration,
// in which case the route still names the old holder).
func (p *addProxy) resume() {
	p.mu.Lock()
	if p.state != apPaused {
		p.mu.Unlock()
		return
	}
	b, err := p.g.route(p.name)
	if err == nil && !b.isHealthy() {
		err = fmt.Errorf("backend %s holding session %q is unhealthy", b.addr, p.name)
	}
	if err != nil {
		p.failLocked(err)
		p.mu.Unlock()
		p.sendTerminal(err, 0)
		return
	}
	replay := p.journal
	p.journal = nil
	p.journalBytes = 0
	p.attachLocked(b, replay)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// fail moves the proxy to the terminal state from outside the lock. When
// the proxy already failed it still passes through sendTerminal (an
// idempotent no-op) so a caller on the handler goroutine synchronizes
// with any in-flight terminal write before returning.
func (p *addProxy) fail(err error, status int) {
	p.mu.Lock()
	switch p.state {
	case apDone:
		p.mu.Unlock()
		return
	case apFailed:
		err, status = p.failErr, p.failStatus
	default:
		p.failStatus = status
		p.failLocked(err)
	}
	p.mu.Unlock()
	p.sendTerminal(err, status)
}

// failLocked flips state (p.mu held); the caller sends the terminal.
func (p *addProxy) failLocked(err error) {
	p.state = apFailed
	p.failErr = err
	if leg := p.upstream; leg != nil {
		leg.cancel()
	}
	p.cond.Broadcast()
}

// writeAck relays one ack line to the client.
func (p *addProxy) writeAck(index int, errMsg string) bool {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.termWrote {
		return false
	}
	if !p.anyWrite {
		p.w.Header().Set("Content-Type", "application/x-ndjson")
		p.anyWrite = true
	}
	p.buf = wire.AppendAck(p.buf[:0], index, errMsg)
	if _, err := p.w.Write(p.buf); err != nil {
		return false
	}
	if err := p.rc.Flush(); err != nil {
		return false
	}
	return true
}

// sendTerminal reports the stream's failure: as a plain HTTP error if no
// ack has been written yet (the status is still ours to choose), in-band
// otherwise.
func (p *addProxy) sendTerminal(err error, status int) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.termWrote {
		return
	}
	p.termWrote = true
	if !p.anyWrite {
		if status == 0 {
			status = http.StatusBadGateway
		}
		p.anyWrite = true
		p.g.writeError(p.w, status, fmt.Errorf("gateway: %v", err))
		return
	}
	p.buf = wire.AppendError(p.buf[:0], fmt.Sprintf("gateway: %v", err))
	if _, werr := p.w.Write(p.buf); werr == nil {
		p.rc.Flush() //nolint:errcheck // the conversation is over either way
	}
}

// waitCtx waits on p.cond, abandoning the wait when ctx expires. Returns
// false once ctx is done. (cond has no native deadline; a helper
// goroutine converts the ctx edge into a broadcast.)
func (p *addProxy) waitCtx(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		case <-stop:
		}
	}()
	p.cond.Wait()
	close(stop)
	return ctx.Err() == nil
}

func timeUntilDeadline(ctx context.Context) time.Duration {
	if d, ok := ctx.Deadline(); ok {
		if r := time.Until(d); r > 0 {
			return r
		}
		return time.Millisecond
	}
	return 30 * time.Second
}

func (g *Gateway) unregisterAddProxy(name string, p *addProxy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	list := g.addProxies[name]
	for i, q := range list {
		if q == p {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(g.addProxies, name)
	} else {
		g.addProxies[name] = list
	}
}

// noteJournalDepth records the high-water mark of any proxy's journal.
func (g *Gateway) noteJournalDepth(depth int64) {
	for {
		cur := g.journalHighWater.Load()
		if depth <= cur || g.journalHighWater.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// --- parked one-shot writes ---------------------------------------------

// parkedSession is the bounded wait queue one migrating session's
// one-shot writes join instead of bouncing with 503.
type parkedSession struct {
	ch    chan struct{} // closed at unquiesce
	count int
}

var errParkTimeout = errors.New("queued write outlived the migration window")

// awaitWritable blocks while name is quiesced, parking the caller on the
// session's bounded queue. It returns a nil error when writes may
// proceed; otherwise the 503's Retry-After seconds and the reason.
func (g *Gateway) awaitWritable(ctx context.Context, name string) (retryAfter int, err error) {
	deadline := time.Now().Add(g.opts.ParkTimeout)
	for {
		g.mu.Lock()
		started, moving := g.moving[name]
		if !moving {
			g.mu.Unlock()
			return 0, nil
		}
		pk := g.parked[name]
		if pk == nil {
			pk = &parkedSession{ch: make(chan struct{})}
			g.parked[name] = pk
		}
		if pk.count >= g.opts.ParkLimit {
			ra := g.quiesceRetrySeconds(started)
			g.mu.Unlock()
			return ra, fmt.Errorf("session %q is migrating and its write queue is full (%d); retry shortly",
				name, g.opts.ParkLimit)
		}
		pk.count++
		ch := pk.ch
		g.mu.Unlock()
		g.parkedWrites.Add(1)

		var waitErr error
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
		case <-ctx.Done():
			waitErr = ctx.Err()
		case <-timer.C:
			waitErr = errParkTimeout
		}
		timer.Stop()

		g.mu.Lock()
		pk.count--
		g.mu.Unlock()
		if waitErr != nil {
			g.mu.RLock()
			started, moving := g.moving[name]
			g.mu.RUnlock()
			ra := 1
			if moving {
				ra = g.quiesceRetrySeconds(started)
			}
			return ra, fmt.Errorf("session %q is migrating; retry shortly (%v)", name, waitErr)
		}
		// Woken: loop to re-check (a new migration may have started).
	}
}

// quiesceRetrySeconds derives Retry-After from how long the quiesce has
// actually been running: the longer it has run, the less of the window
// remains.
func (g *Gateway) quiesceRetrySeconds(started time.Time) int {
	remaining := g.opts.QuiesceTimeout - time.Since(started)
	if remaining < time.Second {
		return 1
	}
	return retrySeconds(remaining)
}

// quiesceSession begins a quiesce window. It reports false if one is
// already running for name.
func (g *Gateway) quiesceSession(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.moving[name]; ok {
		return false
	}
	g.moving[name] = time.Now()
	return true
}

// unquiesceSession ends the window: wakes parked writes and resumes
// paused add proxies against whatever route() now says (the new holder
// after a cutover; the old one after a failed migration).
func (g *Gateway) unquiesceSession(name string) {
	g.mu.Lock()
	delete(g.moving, name)
	pk := g.parked[name]
	delete(g.parked, name)
	proxies := append([]*addProxy(nil), g.addProxies[name]...)
	g.mu.Unlock()
	for _, p := range proxies {
		p.resume()
	}
	if pk != nil {
		close(pk.ch)
	}
}

// pauseAddStreams detaches every live add stream for name (migration
// step 2'). Streams whose backends died with unacked lines get the
// terminal error; everything else parks in its journal.
func (g *Gateway) pauseAddStreams(ctx context.Context, name string) {
	g.mu.RLock()
	proxies := append([]*addProxy(nil), g.addProxies[name]...)
	g.mu.RUnlock()
	for _, p := range proxies {
		p.pause(ctx)
	}
}
