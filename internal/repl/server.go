package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	rollingjoin "repro"
	"repro/internal/core"
	"repro/internal/engine"
)

// Server exposes a database over HTTP: writes, ad-hoc queries,
// point-in-time materialization, view-delta subscriptions, and — the
// replication feed — raw committed WAL bytes. The same server runs on a
// leader (full surface) or a follower (reads only; commits answer 403
// with ErrReadOnly so clients learn to redirect writes to the leader).
type Server struct {
	db  *rollingjoin.DB
	mux *http.ServeMux

	bytesOut atomic.Int64 // WAL bytes streamed to followers
	tails    atomic.Int64 // live /v1/wal streams
}

// HTTP limits of the serving layer. A POST body larger than MaxBodyBytes
// is answered 413. The timeouts bound how long a client may take to send
// its request headers, to send a whole request, and to idle between
// requests on a kept-alive connection. There is deliberately no write
// timeout: /v1/wal and /v1/deltas stream for as long as their client
// stays. ReadTimeout does not cut them either, because net/http lifts the
// read deadline once a request has been read in full.
const (
	MaxBodyBytes      = 8 << 20
	ReadHeaderTimeout = 5 * time.Second
	ReadTimeout       = 30 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns an http.Server serving h on addr with the serving
// layer's timeouts.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// NewServer wraps the database. On a leader it also installs the
// replication stats hook so engine.Stats reports the shipping side.
func NewServer(db *rollingjoin.DB) *Server {
	s := &Server{db: db, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("POST /v1/commit", s.handleCommit)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/materialize", s.handleMaterialize)
	s.mux.HandleFunc("GET /v1/deltas", s.handleDeltas)
	s.mux.HandleFunc("GET /v1/wal", s.handleWAL)
	if !db.IsFollower() {
		db.Engine().SetReplStats(func() engine.ReplStats {
			return engine.ReplStats{
				Role:         "leader",
				LeaderCSN:    int64(db.LastCSN()),
				BytesShipped: s.bytesOut.Load(),
			}
		})
	}
	return s
}

// Handler returns the HTTP handler for use with http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// BytesShipped returns the total committed WAL bytes streamed out.
func (s *Server) BytesShipped() int64 { return s.bytesOut.Load() }

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// httpStatusFor maps library errors onto HTTP codes: read-only follower →
// 403, unknown view/table and no-commits-yet → 404, beyond-HWM → 409
// (retriable once propagation catches up), everything else → 400.
func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, rollingjoin.ErrReadOnly):
		return http.StatusForbidden
	case errors.Is(err, rollingjoin.ErrNoCommits):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBeyondHWM), errors.Is(err, core.ErrBackward):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatusFor(err), errorResponse{Error: err.Error()})
}

// decodeBody decodes the JSON request body, read through a MaxBodyBytes
// limit, into v. On failure it answers the request itself (413 for an
// oversized body, 400 otherwise) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("repl: %s body exceeds %d bytes", what, tooLarge.Limit),
		})
		return false
	}
	writeErr(w, fmt.Errorf("repl: bad %s body: %w", what, err))
	return false
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	role := "leader"
	if s.db.IsFollower() {
		role = "follower"
	}
	resp := StatusResponse{
		Role:       role,
		LastCSN:    int64(s.db.LastCSN()),
		StableCSN:  int64(s.db.Engine().StableCSN()),
		AppliedCSN: int64(s.db.AppliedCSN()),
		WALSize:    s.db.Engine().Log().Size(),
		Views:      map[string]ViewStatus{},
	}
	for _, name := range s.db.ViewNames() {
		if v, ok := s.db.View(name); ok {
			resp.Views[name] = ViewStatus{HWM: int64(v.HWM()), MatTime: int64(v.MatTime())}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req CommitRequest
	if !decodeBody(w, r, "commit", &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, errors.New("repl: commit with no operations"))
		return
	}
	csn, err := s.db.Update(func(tx *rollingjoin.Tx) error {
		for _, op := range req.Ops {
			switch op.Op {
			case "insert":
				row, err := DecodeRow(op.Row)
				if err != nil {
					return err
				}
				if err := tx.Insert(op.Table, row...); err != nil {
					return err
				}
			case "delete":
				conds, err := decodeFilters(op.Filters)
				if err != nil {
					return err
				}
				if _, err := tx.DeleteMatching(op.Table, conds, op.Limit); err != nil {
					return err
				}
			default:
				return fmt.Errorf("repl: unknown op %q", op.Op)
			}
		}
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, CommitResponse{CSN: int64(csn)})
}

func decodeFilters(in []WireFilter) ([]rollingjoin.Filter, error) {
	out := make([]rollingjoin.Filter, 0, len(in))
	for _, f := range in {
		op, err := DecodeOp(f.Op)
		if err != nil {
			return nil, err
		}
		v, err := DecodeValue(f.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, rollingjoin.Filter{Table: f.Table, Column: f.Column, Op: op, Value: v})
	}
	return out, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeBody(w, r, "query", &req) {
		return
	}
	spec := rollingjoin.ViewSpec{Tables: req.Tables}
	for _, j := range req.Joins {
		spec.Joins = append(spec.Joins, rollingjoin.Join{
			LeftTable: j.LeftTable, LeftColumn: j.LeftColumn,
			RightTable: j.RightTable, RightColumn: j.RightColumn,
		})
	}
	conds, err := decodeFilters(req.Filters)
	if err != nil {
		writeErr(w, err)
		return
	}
	spec.Filters = conds
	for _, o := range req.Output {
		spec.Output = append(spec.Output, rollingjoin.OutCol{Table: o.Table, Column: o.Column})
	}
	res, err := s.db.Query(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := RowsResponse{Columns: res.Columns, Rows: make([][]any, 0, len(res.Rows))}
	for _, row := range res.Rows {
		resp.Rows = append(resp.Rows, EncodeRow(row))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMaterialize(w http.ResponseWriter, r *http.Request) {
	var req MaterializeRequest
	if !decodeBody(w, r, "materialize", &req) {
		return
	}
	v, ok := s.db.View(req.View)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("repl: no view %q", req.View)})
		return
	}
	asOf := rollingjoin.CSN(req.AsOf)
	if req.Time != "" {
		t, err := time.Parse(time.RFC3339Nano, req.Time)
		if err != nil {
			writeErr(w, fmt.Errorf("repl: bad time: %w", err))
			return
		}
		asOf, err = s.db.CSNAt(t)
		if err != nil {
			writeErr(w, err)
			return
		}
	}
	if req.AsOf == 0 && req.Time == "" {
		asOf = v.HWM()
	}
	if req.Wait {
		if err := v.WaitForHWMContext(r.Context(), asOf); err != nil {
			writeErr(w, err)
			return
		}
	}
	rows, err := v.MaterializeAt(asOf)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := RowsResponse{AsOf: int64(asOf), Rows: make([][]any, 0, len(rows))}
	for _, row := range rows {
		resp.Rows = append(resp.Rows, EncodeRow(row))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDeltas streams a view's timed delta rows as NDJSON, one DeltaEvent
// per line, starting strictly after ?from= and following the high-water
// mark until the client disconnects. Each window is collected under the
// delta table's latch and written afterwards, so a slow client never
// stalls propagation.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("view")
	v, ok := s.db.View(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("repl: no view %q", name)})
		return
	}
	from, err := parseInt64(r.URL.Query().Get("from"), 0)
	if err != nil {
		writeErr(w, fmt.Errorf("repl: bad from: %w", err))
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	ctx := r.Context()
	pos := rollingjoin.CSN(from)
	for {
		hwm := v.HWM()
		if hwm > pos {
			var events []DeltaEvent
			err := v.EachDelta(pos, hwm, func(ts rollingjoin.CSN, count int64, row rollingjoin.Tuple) error {
				events = append(events, DeltaEvent{CSN: int64(ts), Count: count, Row: EncodeRow(row)})
				return nil
			})
			if err != nil {
				return
			}
			for _, ev := range events {
				if err := enc.Encode(ev); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
			pos = hwm
			continue
		}
		if err := v.WaitForHWMContext(ctx, pos+1); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return
			}
			return
		}
	}
}

// handleWAL streams the leader's committed WAL bytes from ?from= onwards,
// flushing after every chunk and blocking at the frontier until more
// commits land — the replication feed a follower's Tailer consumes. A
// ?from= beyond the committed size means the client holds bytes this log
// never wrote (a diverged or wiped leader): answered with 409 so the
// tailer fail-stops instead of splicing histories.
func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	from, err := parseInt64(r.URL.Query().Get("from"), 0)
	if err != nil {
		writeErr(w, fmt.Errorf("repl: bad from: %w", err))
		return
	}
	log := s.db.Engine().Log()
	committed := log.Size()
	if from > committed {
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: fmt.Sprintf("repl: follower offset %d beyond leader committed size %d", from, committed),
		})
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Rollserve-Csn", strconv.FormatInt(int64(s.db.LastCSN()), 10))
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	s.tails.Add(1)
	defer s.tails.Add(-1)
	ctx := r.Context()
	buf := make([]byte, 64<<10)
	off := from
	for {
		n, err := log.ReadCommitted(buf, off)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			off += int64(n)
			s.bytesOut.Add(int64(n))
		}
		if err != nil {
			return
		}
		if n == 0 {
			if err := log.WaitBeyond(ctx, off); err != nil {
				return
			}
		}
	}
}

func parseInt64(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
