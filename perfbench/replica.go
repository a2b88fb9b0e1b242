package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	rollingjoin "repro"
	"repro/internal/repl"
	"repro/internal/wal"
)

// replicaSystem is replica-http: a leader and a follower in one process,
// each serving the repl HTTP surface on loopback, with the follower tailing
// the leader's WAL. The writer commits to the leader over HTTP on its own
// connection; reads go to the follower over another.
type replicaSystem struct {
	tr        *tracer
	leader    *rollingjoin.DB
	follower  *rollingjoin.DB
	dev       *countingDevice
	spec      rollingjoin.ViewSpec
	lview     *rollingjoin.View
	fview     *rollingjoin.View
	servers   []*http.Server
	tailer    *repl.Tailer
	leaderURL string
	followURL string
	writer    *http.Client
	reader    *http.Client
	readBytes atomic.Int64
	// readMu keeps the follower's fold pass apart from a read: a read
	// picks its CSN at or above the view's MatTime, and a fold pass may
	// move the fold line up to MatTime.
	readMu sync.Mutex
}

// spanHeader carries the client span id so the server-side span of the
// same request nests under it.
const spanHeader = "Perfbench-Span"

func setupReplica(w workloadConfig, tr *tracer, g *gen) (_ *replicaSystem, err error) {
	if err := unused("replica-http", map[string]bool{
		"fileWAL": w.fileWAL, "syncOnCommit": w.syncOnCommit,
		"foldDeltas": w.foldDeltas,
	}); err != nil {
		return nil, err
	}
	s := &replicaSystem{tr: tr}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.dev = newCountingDevice(wal.NewMemDevice(), tr)
	if s.leader, err = rollingjoin.Open(rollingjoin.Options{Device: s.dev, Partitions: w.partitions}); err != nil {
		return nil, err
	}
	if err = createSchema(s.leader, w); err != nil {
		return nil, err
	}
	if err = g.load(s.leader); err != nil {
		return nil, err
	}
	s.spec = hotJoin("rp_hot", w.hotGroups)
	if s.lview, err = s.leader.DefineView(s.spec, autoRefresh); err != nil {
		return nil, err
	}
	if s.leaderURL, err = s.serve(s.leader); err != nil {
		return nil, err
	}

	if s.follower, err = rollingjoin.Open(rollingjoin.Options{Follower: true, Partitions: w.partitions}); err != nil {
		return nil, err
	}
	if err = createSchema(s.follower, w); err != nil {
		return nil, err
	}
	s.tailer = repl.NewTailer(s.follower, s.leaderURL)
	s.tailer.Start()
	if err = s.waitApplied(s.leader.LastCSN(), 60*time.Second); err != nil {
		return nil, err
	}
	if s.fview, err = s.follower.DefineView(s.spec, autoRefresh); err != nil {
		return nil, err
	}
	if s.followURL, err = s.serve(s.follower); err != nil {
		return nil, err
	}
	s.writer = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	s.reader = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	return s, nil
}

// serve starts the repl HTTP surface for db on a loopback port.
func (s *replicaSystem) serve(db *rollingjoin.DB) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.traced(repl.NewServer(db).Handler()), ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	go srv.Serve(lis)
	return "http://" + lis.Addr().String(), nil
}

// traced opens a server-side span around the commit and materialize
// handlers, parented to the client span named in the request header. The
// WAL stream is long-lived and is not traced.
func (s *replicaSystem) traced(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/commit" && r.URL.Path != "/v1/materialize" {
			h.ServeHTTP(w, r)
			return
		}
		parent := noSpan
		if v, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32); err == nil {
			parent = int32(v)
		}
		id := s.tr.beginUnder("srv"+r.URL.Path, parent)
		h.ServeHTTP(w, r)
		s.tr.end(id)
	})
}

func (s *replicaSystem) waitApplied(target rollingjoin.CSN, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.follower.AppliedCSN() < target {
		if err := s.tailer.Err(); err != nil {
			return fmt.Errorf("tailer: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower applied %d, want %d after %v", s.follower.AppliedCSN(), target, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// post sends one JSON request and decodes the JSON answer into out,
// returning the response body size.
func (s *replicaSystem) post(c *http.Client, url, span string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	id := s.tr.begin(span)
	defer s.tr.end(id)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != noSpan {
		req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(data), fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return len(data), json.Unmarshal(data, out)
}

func wireValue(v rollingjoin.Value) json.RawMessage {
	b, _ := json.Marshal(repl.EncodeValue(v)) // a typed envelope of scalars always marshals
	return b
}

func wireRow(row []rollingjoin.Value) []json.RawMessage {
	out := make([]json.RawMessage, len(row))
	for i, v := range row {
		out[i] = wireValue(v)
	}
	return out
}

func wireKeyFilter(col string, key int64) []repl.WireFilter {
	return []repl.WireFilter{{Column: col, Op: "eq", Value: wireValue(rollingjoin.Int(key))}}
}

func (s *replicaSystem) commit(o op) (rollingjoin.CSN, error) {
	var req repl.CommitRequest
	if o.keyCol != "" {
		req.Ops = append(req.Ops, repl.WriteOp{Op: "delete", Table: o.table, Filters: wireKeyFilter(o.keyCol, o.key), Limit: o.limit})
	}
	if o.row != nil {
		req.Ops = append(req.Ops, repl.WriteOp{Op: "insert", Table: o.table, Row: wireRow(o.row)})
	}
	var resp repl.CommitResponse
	if _, err := s.post(s.writer, s.leaderURL+"/v1/commit", "http.commit", req, &resp); err != nil {
		return 0, err
	}
	return rollingjoin.CSN(resp.CSN), nil
}

func (s *replicaSystem) read(r *rand.Rand) (int, error) {
	s.readMu.Lock()
	defer s.readMu.Unlock()
	lo, hi := s.fview.MatTime(), s.fview.HWM()
	asOf := lo
	if hi > lo {
		asOf += rollingjoin.CSN(r.Int63n(int64(hi - lo + 1)))
	}
	var resp repl.RowsResponse
	n, err := s.post(s.reader, s.followURL+"/v1/materialize", "http.materialize",
		repl.MaterializeRequest{View: s.spec.Name, AsOf: int64(asOf)}, &resp)
	s.readBytes.Add(int64(n))
	return len(resp.Rows), err
}

func (s *replicaSystem) positions() positions {
	var p positions
	p.mat = s.fview.MatTime()
	p.hwm = s.fview.HWM()
	p.capture = s.follower.Source().Progress()
	p.applied = s.follower.AppliedCSN()
	p.last = s.leader.LastCSN()
	return p
}

func (s *replicaSystem) backlogRows() int64 { return s.follower.Engine().Stats().Sched.BacklogRows }

func (s *replicaSystem) levels() []maintainedRel { return []maintainedRel{s.lview, s.fview} }

// pause also stops WAL shipping, so a catch-up drains the follower's
// backlog through reconnect, shipping and replay as well as propagation.
func (s *replicaSystem) pause() error {
	s.tailer.Stop()
	if err := s.tailer.Err(); err != nil {
		return fmt.Errorf("tailer: %w", err)
	}
	return pauseAll(s.levels())
}

func (s *replicaSystem) resume() {
	s.tailer = repl.NewTailer(s.follower, s.leaderURL)
	s.tailer.Start()
	resumeAll(s.levels())
}

func (s *replicaSystem) catchUp(target rollingjoin.CSN) error {
	id := s.tr.begin("catchup")
	defer s.tr.end(id)
	return catchUpAll(s.levels(), target)
}

// maintain runs one fold pass on each node. Nothing else collects dead row
// versions when background folding is off, and every delete by key scans
// past them; on the follower the view's delta window, which every read
// folds, would also grow without end.
func (s *replicaSystem) maintain() error {
	id := s.tr.begin("fold")
	defer s.tr.end(id)
	if err := s.leader.Fold(); err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	s.readMu.Lock()
	defer s.readMu.Unlock()
	if err := s.follower.Fold(); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	return nil
}

func (s *replicaSystem) verify(target rollingjoin.CSN) error {
	if err := s.tailer.Err(); err != nil {
		return fmt.Errorf("tailer: %w", err)
	}
	if err := levelErrs(s.levels()); err != nil {
		return err
	}
	if err := checkView(s.leader, s.lview, s.spec, target); err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	lrows, err := s.lview.MaterializeAt(target)
	if err != nil {
		return err
	}
	frows, err := s.fview.MaterializeAt(target)
	if err != nil {
		return fmt.Errorf("follower: materialize at %d: %w", target, err)
	}
	if err := sameRows("follower "+s.spec.Name, frows, lrows); err != nil {
		return fmt.Errorf("follower differs from leader at %d: %w", target, err)
	}
	return nil
}

func (s *replicaSystem) counters() counters {
	c := collect(s.leader, s.dev, s.levels())
	c.engFollower = s.follower.Engine().Stats()
	c.shipped = s.tailer.BytesShipped()
	c.reconn = s.tailer.Reconnects()
	c.readBytes = s.readBytes.Load()
	return c
}

func (s *replicaSystem) close() error {
	var errs []error
	if s.tailer != nil {
		s.tailer.Stop()
	}
	for _, srv := range s.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
		cancel()
	}
	for _, c := range []*http.Client{s.writer, s.reader} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	for _, db := range []*rollingjoin.DB{s.follower, s.leader} {
		if db != nil {
			errs = append(errs, db.Close())
		}
	}
	return errors.Join(errs...)
}
