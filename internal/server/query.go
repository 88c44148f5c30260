package server

// ScenQL over the wire: one statement in, the sweep's rows out — the
// scenarios are generated server-side next to the kernel instead of being
// shipped as NDJSON lines. POST /v1/sessions/{name}/query answers with one
// JSON document (EXPLAIN answers with the annotated plan tree);
// /query/stream answers NDJSON — a header line, then one line per scenario,
// flushed whenever the generator has no further row ready, so a
// million-point sweep is O(1) server memory and the client sees results
// immediately.

import (
	"context"
	"encoding/json"
	"net/http"

	"provabs/internal/registry"
	"provabs/internal/scenql"
	"provabs/internal/session"
	"provabs/internal/wire"
)

// queryRequest is the POST body of both query endpoints.
type queryRequest struct {
	Query string `json:"query"`
}

// queryStatus maps a statement failure to its HTTP status: parse and
// resolution errors are the client's (400), anything else is not.
func queryStatus(err error) int {
	switch err.(type) {
	case *scenql.ParseError, *scenql.CompileError:
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	var req queryRequest
	if !s.decodeJSON(w, r, s.maxLine, &req, "query request") {
		return
	}
	res, err := sess.Engine().QueryContext(r.Context(), req.Query)
	if err != nil {
		s.writeError(w, r, queryStatus(err), err)
		return
	}
	if res.Explain != nil {
		s.writeJSON(w, r, http.StatusOK, res.Explain)
		return
	}
	q := wire.Query{
		Semiring:  res.Semiring.String(),
		Scenarios: res.Scenarios,
		Rows:      make([]wire.Row, len(res.Rows)),
		Errors:    res.Errors,
		Truncated: res.Truncated,
	}
	for i, row := range res.Rows {
		q.Rows[i] = wire.Row(row)
	}
	s.writeLine(w, r, http.StatusOK, wire.AppendQuery(nil, q))
}

// handleQueryStream runs one statement with NDJSON delivery: a header line
// ({"semiring","scenarios"}), then one row line per scenario as it is
// computed (see streamLines for when they are flushed). An EXPLAIN
// statement answers with a single line carrying the annotated plan. The
// stream ends early when the client goes away or the session is closed.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request, sess *registry.Session) {
	releaseStream, ok := s.acquireStream(w, r)
	if !ok {
		return
	}
	defer releaseStream()
	var req queryRequest
	if !s.decodeJSON(w, r, s.maxLine, &req, "query request") {
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-sess.Done():
			cancel()
		case <-ctx.Done():
		}
	}()
	info, rows, err := sess.Engine().QueryStream(ctx, req.Query)
	if err != nil {
		s.writeError(w, r, queryStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if info.Explain != nil {
		if err := json.NewEncoder(w).Encode(info.Explain); err != nil {
			s.logger.Printf("server: %s %s: explain write: %v", r.Method, r.URL.Path, err)
		}
		return
	}
	header := wire.Query{Semiring: info.Semiring.String(), Scenarios: info.Scenarios}
	if _, err := w.Write(wire.AppendQueryHeader(nil, header)); err != nil {
		s.logger.Printf("server: %s %s: header write: %v", r.Method, r.URL.Path, err)
		return
	}
	rc := http.NewResponseController(w)
	if err := rc.Flush(); err != nil {
		s.logger.Printf("server: %s %s: header flush: %v", r.Method, r.URL.Path, err)
		return
	}
	// The sweep is server-generated, so flushing at quiescence batches
	// thousands of rows per TCP write on a fast sweep while still keeping a
	// slow one interactive.
	if _, err := streamLines(w, rc, rows, nil, func(buf []byte, row session.QueryRow) []byte {
		return wire.AppendRow(buf, wire.Row(row))
	}); err != nil {
		// The client went away; cancel() ends the sweep.
		s.logger.Printf("server: %s %s: %v", r.Method, r.URL.Path, err)
	}
}
