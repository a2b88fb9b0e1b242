package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	rollingjoin "repro"
	"repro/internal/wal"
)

// positions are the clocks the observer polls to see how far a commit has
// travelled: the writer node's last CSN, capture progress, and the
// reader-facing views' high-water mark and materialization time (the
// minimum over them), plus a follower's replayed CSN.
type positions struct {
	last, capture, hwm, mat, applied rollingjoin.CSN
}

// maintainedRel is what the benchmark needs of a view or aggregate.
type maintainedRel interface {
	CatchUp(rollingjoin.CSN) error
	Refresh() (rollingjoin.CSN, error)
	StartPropagation()
	StopPropagation() error
	HWM() rollingjoin.CSN
	MatTime() rollingjoin.CSN
	Err() error
}

// system is one workload's database set-up as the load generator drives it.
type system interface {
	// commit runs one user transaction and returns its CSN.
	commit(o op) (rollingjoin.CSN, error)
	// read is one point-in-time read of the reader-facing view at a CSN in
	// [MatTime, HWM]; it returns the rows read.
	read(r *rand.Rand) (int, error)
	// positions reads the clocks downstream first (mat, hwm, capture,
	// applied, last): each clock trails the one upstream of it, so this
	// order keeps the stages of one commit in order within one reading.
	positions() positions
	// backlogRows is the un-applied view delta rows of the reader's node.
	backlogRows() int64
	// pause stops every view's propagation and apply; resume restarts them.
	pause() error
	resume()
	// catchUp drains propagation and refresh of every level to target.
	catchUp(target rollingjoin.CSN) error
	// maintain is the workload's periodic maintenance call, made in the
	// writer's path at the start of every cycle.
	maintain() error
	// verify checks every maintained relation against recomputation at
	// target, with writes quiesced and every level caught up to it.
	verify(target rollingjoin.CSN) error
	counters() counters
	close() error
}

// localSystem is an in-process database: star-sync and skew-cascade.
type localSystem struct {
	w       workloadConfig
	tr      *tracer
	dir     string
	db      *rollingjoin.DB
	dev     *countingDevice
	levels  []maintainedRel     // every maintained relation, upstream first
	readers []*rollingjoin.View // reader-facing views; reads hit the first
	check   func(target rollingjoin.CSN) error
}

func openLocal(w workloadConfig, tr *tracer, dir string) (*localSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var inner wal.Device = wal.NewMemDevice()
	if w.fileWAL {
		fd, err := wal.OpenFileDevice(filepath.Join(dir, "wal"))
		if err != nil {
			return nil, err
		}
		inner = fd
	}
	dev := newCountingDevice(inner, tr)
	db, err := rollingjoin.Open(rollingjoin.Options{
		Device:       dev,
		SyncOnCommit: w.syncOnCommit,
		Partitions:   w.partitions,
		FoldDeltas:   w.foldDeltas,
	})
	if err != nil {
		dev.Close()
		return nil, err
	}
	return &localSystem{w: w, tr: tr, dir: dir, db: db, dev: dev}, nil
}

// createSchema creates the fact and dimension tables with hash indexes on
// every join column.
func createSchema(db *rollingjoin.DB, w workloadConfig) error {
	if err := db.CreateTable(factTable(), factColumns(w.dims)...); err != nil {
		return err
	}
	for d := 0; d < w.dims; d++ {
		if err := db.CreateTable(dimTable(d), dimColumns...); err != nil {
			return err
		}
		if err := db.CreateIndex(dimTable(d), "k"); err != nil {
			return err
		}
		if err := db.CreateIndex(factTable(), factKeyCol(d)); err != nil {
			return err
		}
	}
	return nil
}

var autoRefresh = rollingjoin.Maintain{AutoRefresh: true}

// starJoin is fact joined to the first n dimensions.
func starJoin(name string, n int) rollingjoin.ViewSpec {
	spec := rollingjoin.ViewSpec{Name: name, Tables: []string{factTable()}}
	spec.Output = []rollingjoin.OutCol{{Table: factTable(), Column: "id"}, {Table: factTable(), Column: "amt"}}
	for d := 0; d < n; d++ {
		spec.Tables = append(spec.Tables, dimTable(d))
		spec.Joins = append(spec.Joins, rollingjoin.Join{
			LeftTable: factTable(), LeftColumn: factKeyCol(d), RightTable: dimTable(d), RightColumn: "k",
		})
		spec.Output = append(spec.Output, rollingjoin.OutCol{Table: dimTable(d), Column: "g"})
	}
	return spec
}

// hotJoin is fact joined to dim1, restricted to the first hotGroups groups.
func hotJoin(name string, hotGroups int) rollingjoin.ViewSpec {
	spec := starJoin(name, 1)
	spec.Filters = []rollingjoin.Filter{{Table: dimTable(0), Column: "g", Op: rollingjoin.LT, Value: rollingjoin.Int(int64(hotGroups))}}
	return spec
}

// setupStar builds star-sync: two AutoRefresh join views over the star.
func setupStar(w workloadConfig, tr *tracer, dir string, g *gen) (*localSystem, error) {
	s, err := openLocal(w, tr, dir)
	if err != nil {
		return nil, err
	}
	if err := s.build(g, func() error {
		all := starJoin("star_all", w.dims)
		hot := hotJoin("star_hot", w.hotGroups)
		va, err := s.db.DefineView(all, autoRefresh)
		if err != nil {
			return err
		}
		vh, err := s.db.DefineView(hot, autoRefresh)
		if err != nil {
			return err
		}
		s.levels = []maintainedRel{va, vh}
		s.readers = []*rollingjoin.View{vh, va}
		s.check = func(target rollingjoin.CSN) error {
			if err := checkView(s.db, va, all, target); err != nil {
				return err
			}
			return checkView(s.db, vh, hot, target)
		}
		return nil
	}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// setupCascade builds skew-cascade: join view -> GROUP BY aggregate ->
// filtered top view, every level AutoRefresh.
func setupCascade(w workloadConfig, tr *tracer, dir string, g *gen) (*localSystem, error) {
	if err := unused("skew-cascade", map[string]bool{"dims": w.dims != 1}); err != nil {
		return nil, err
	}
	s, err := openLocal(w, tr, dir)
	if err != nil {
		return nil, err
	}
	if err := s.build(g, func() error {
		join := starJoin("sk_join", 1)
		vj, err := s.db.DefineView(join, autoRefresh)
		if err != nil {
			return err
		}
		agg := rollingjoin.AggSpec{
			Name:    "sk_groups",
			Source:  "sk_join",
			GroupBy: []string{"g"},
			Aggs: []rollingjoin.Agg{
				{Func: rollingjoin.AggCount},
				{Func: rollingjoin.AggSum, Column: "amt"},
				{Func: rollingjoin.AggMin, Column: "amt"},
				{Func: rollingjoin.AggMax, Column: "amt"},
			},
		}
		va, err := s.db.DefineAggregate(agg, autoRefresh)
		if err != nil {
			return err
		}
		top := rollingjoin.ViewSpec{
			Name:    "sk_top",
			Tables:  []string{"sk_groups"},
			Filters: []rollingjoin.Filter{{Table: "sk_groups", Column: "g", Op: rollingjoin.LT, Value: rollingjoin.Int(int64(w.hotGroups))}},
		}
		vt, err := s.db.DefineView(top, autoRefresh)
		if err != nil {
			return err
		}
		s.levels = []maintainedRel{vj, va, vt}
		s.readers = []*rollingjoin.View{vt}
		s.check = func(target rollingjoin.CSN) error {
			return checkCascade(s.db, vj, join, va, vt, w.hotGroups, target)
		}
		return nil
	}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// build creates the schema, loads the base rows and defines the views.
func (s *localSystem) build(g *gen, define func() error) error {
	if err := createSchema(s.db, s.w); err != nil {
		return err
	}
	if err := g.load(s.db); err != nil {
		return err
	}
	return define()
}

func (s *localSystem) commit(o op) (rollingjoin.CSN, error) { return applyOp(s.db, s.tr, o) }

// applyOp runs one operation as a transaction, with a span around the
// whole commit and one around each call into the transaction layer.
func applyOp(db *rollingjoin.DB, tr *tracer, o op) (rollingjoin.CSN, error) {
	root := tr.begin("commit")
	defer tr.end(root)
	tx := db.Begin()
	var err error
	if o.keyCol != "" {
		id := tr.begin("tx.delete")
		_, err = tx.Delete(o.table, o.keyCol, rollingjoin.EQ, rollingjoin.Int(o.key), o.limit)
		tr.end(id)
	}
	if err == nil && o.row != nil {
		id := tr.begin("tx.insert")
		err = tx.Insert(o.table, o.row...)
		tr.end(id)
	}
	if err != nil {
		tx.Abort()
		return 0, err
	}
	id := tr.begin("tx.commit")
	csn, err := tx.Commit()
	tr.end(id)
	return csn, err
}

func (s *localSystem) read(r *rand.Rand) (int, error) {
	return readAt(s.tr, s.readers[0], r)
}

// readAt materializes v at a CSN drawn uniformly from [MatTime, HWM].
func readAt(tr *tracer, v *rollingjoin.View, r *rand.Rand) (int, error) {
	lo, hi := v.MatTime(), v.HWM()
	asOf := lo
	if hi > lo {
		asOf += rollingjoin.CSN(r.Int63n(int64(hi - lo + 1)))
	}
	id := tr.begin("materialize")
	rows, err := v.MaterializeAt(asOf)
	tr.end(id)
	return len(rows), err
}

func (s *localSystem) positions() positions {
	var p positions
	p.mat, p.hwm = minClocks(s.readers)
	p.capture = s.db.Source().Progress()
	p.last = s.db.LastCSN()
	return p
}

func (s *localSystem) backlogRows() int64 { return s.db.Engine().Stats().Sched.BacklogRows }

// minClocks returns the lowest MatTime and HWM over vs, reading every
// MatTime before any HWM.
func minClocks(vs []*rollingjoin.View) (mat, hwm rollingjoin.CSN) {
	for i, v := range vs {
		if m := v.MatTime(); i == 0 || m < mat {
			mat = m
		}
	}
	for i, v := range vs {
		if h := v.HWM(); i == 0 || h < hwm {
			hwm = h
		}
	}
	return mat, hwm
}

func (s *localSystem) pause() error { return pauseAll(s.levels) }
func (s *localSystem) resume()      { resumeAll(s.levels) }

func pauseAll(levels []maintainedRel) error {
	for i := len(levels) - 1; i >= 0; i-- {
		if err := levels[i].StopPropagation(); err != nil {
			return err
		}
	}
	return nil
}

func resumeAll(levels []maintainedRel) {
	for _, l := range levels {
		l.StartPropagation()
	}
}

func (s *localSystem) catchUp(target rollingjoin.CSN) error {
	id := s.tr.begin("catchup")
	defer s.tr.end(id)
	return catchUpAll(s.levels, target)
}

// catchUpAll drives every level, upstream first, to target and refreshes it.
func catchUpAll(levels []maintainedRel, target rollingjoin.CSN) error {
	for _, l := range levels {
		if err := l.CatchUp(target); err != nil {
			return err
		}
		if _, err := l.Refresh(); err != nil {
			return err
		}
	}
	return nil
}

// maintain appends a link to the incremental checkpoint chain.
func (s *localSystem) maintain() error {
	id := s.tr.begin("checkpoint")
	defer s.tr.end(id)
	return s.db.CheckpointIncremental(filepath.Join(s.dir, "chain"))
}

func (s *localSystem) verify(target rollingjoin.CSN) error {
	if err := levelErrs(s.levels); err != nil {
		return err
	}
	return s.check(target)
}

func levelErrs(levels []maintainedRel) error {
	var errs []error
	for _, l := range levels {
		if err := l.Err(); err != nil {
			errs = append(errs, fmt.Errorf("maintenance failed: %w", err))
		}
	}
	return errors.Join(errs...)
}

func (s *localSystem) counters() counters {
	return collect(s.db, s.dev, s.levels)
}

func (s *localSystem) close() error {
	err := s.db.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
