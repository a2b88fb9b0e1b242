package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// pipelineDB builds a database with three (k, v) base tables of varying
// sizes, populated deltas, and an index on t1.k — enough surface for the
// planner to exercise table scans, delta-window scans, hash joins (both
// build sides), index-nested-loop probes, residuals, and projections.
func pipelineDB(t *testing.T, r *rand.Rand, withIndex bool) *DB {
	t.Helper()
	db := testDB(t)
	kv := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	sizes := []int{40, 25, 12}
	for i, size := range sizes {
		name := fmt.Sprintf("t%d", i+1)
		if _, err := db.CreateTable(name, kv); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateDelta(name); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for j := 0; j < size; j++ {
			row := tuple.Tuple{tuple.Int(int64(r.Intn(8))), tuple.Int(int64(j))}
			mustExec(t, tx, tx.Insert(name, row))
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		d, _ := db.Delta(name)
		for j := 0; j < 15; j++ {
			count := int64(1)
			if r.Intn(4) == 0 {
				count = -1
			}
			d.Append(relalg.CSN(j+1), count,
				tuple.Tuple{tuple.Int(int64(r.Intn(8))), tuple.Int(int64(100 + j))})
		}
	}
	if withIndex {
		if _, err := db.CreateIndex("t1", "k"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// randomQuery builds a random 2–3 way SPJ propagation-style query: one
// delta position with a random window, the rest base tables, equi-join
// conditions on k, an occasional pushdown or residual predicate, and an
// occasional projection.
func randomQuery(r *rand.Rand, nInputs int) *Query {
	q := &Query{}
	deltaPos := r.Intn(nInputs)
	for i := 0; i < nInputs; i++ {
		name := fmt.Sprintf("t%d", i+1)
		in := Input{Kind: InputBase, Table: name}
		if i == deltaPos {
			lo := relalg.CSN(r.Intn(8))
			hi := lo + relalg.CSN(r.Intn(8))
			in = Input{Kind: InputDelta, Table: name, Lo: lo, Hi: hi}
		}
		if r.Intn(3) == 0 {
			in.Pred = relalg.ColConst{Col: 0, Op: relalg.OpLE, Val: tuple.Int(int64(r.Intn(8)))}
		}
		q.Inputs = append(q.Inputs, in)
	}
	for i := 1; i < nInputs; i++ {
		q.Conds = append(q.Conds, JoinCond{
			A: ColRef{Input: i - 1, Col: 0},
			B: ColRef{Input: i, Col: 0},
		})
	}
	if r.Intn(3) == 0 {
		q.Residual = relalg.ColCol{ColA: 1, Op: relalg.OpNE, ColB: 2*nInputs - 1}
	}
	if r.Intn(3) == 0 {
		q.Project = []ColRef{{Input: deltaPos, Col: 0}, {Input: deltaPos, Col: 1}}
	}
	return q
}

// identicalRelations asserts the two relations hold the same multiset of
// (tuple, count, timestamp) rows — stricter than relalg.Equivalent, which
// consolidates counts and nulls timestamps.
func identicalRelations(t *testing.T, label string, got, want *relalg.Relation) {
	t.Helper()
	canon := func(rel *relalg.Relation) []relalg.Row {
		rows := append([]relalg.Row(nil), rel.Rows...)
		sort.Slice(rows, func(i, j int) bool {
			if c := rows[i].Tuple.Compare(rows[j].Tuple); c != 0 {
				return c < 0
			}
			if rows[i].Count != rows[j].Count {
				return rows[i].Count < rows[j].Count
			}
			return rows[i].TS < rows[j].TS
		})
		return rows
	}
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s: row count %d != %d\ngot: %s\nwant: %s", label, len(g), len(w), got, want)
	}
	for i := range g {
		if !g[i].Tuple.Equal(w[i].Tuple) || g[i].Count != w[i].Count || g[i].TS != w[i].TS {
			t.Fatalf("%s: row %d: got %v, want %v", label, i, g[i], w[i])
		}
	}
	if got.Schema.Arity() != want.Schema.Arity() {
		t.Fatalf("%s: schema arity %d != %d", label, got.Schema.Arity(), want.Schema.Arity())
	}
}

// nestedLoopEval is the planner oracle: it materializes every input of q,
// enumerates the full cross product in declaration order, and keeps the
// combinations that satisfy every join condition and the residual. Counts
// multiply and timestamps combine by minimum (the paper's combination
// rule). It shares no code with the planner beyond the storage readers.
func nestedLoopEval(t *testing.T, db *DB, q *Query) *relalg.Relation {
	t.Helper()
	inputs := make([][]relalg.Row, len(q.Inputs))
	offsets := make([]int, len(q.Inputs))
	var schema *tuple.Schema
	for i, in := range q.Inputs {
		var rel *relalg.Relation
		switch in.Kind {
		case InputDelta:
			d, err := db.Delta(in.Table)
			if err != nil {
				t.Fatal(err)
			}
			rel = d.Window(in.Lo, in.Hi)
		case InputBase:
			tb, err := db.Table(in.Table)
			if err != nil {
				t.Fatal(err)
			}
			rel = tb.scan(nil)
		default:
			t.Fatalf("oracle: unsupported input kind %d", in.Kind)
		}
		if in.Pred != nil {
			rel = relalg.Select(rel, in.Pred)
		}
		inputs[i] = rel.Rows
		if schema == nil {
			schema = rel.Schema
		} else {
			offsets[i] = schema.Arity()
			schema = tuple.ConcatSchemas(schema, rel.Schema, "r_")
		}
	}
	col := func(ref ColRef) int { return offsets[ref.Input] + ref.Col }
	out := relalg.NewRelation(schema)
	if q.Project != nil {
		idx := make([]int, len(q.Project))
		for j, ref := range q.Project {
			idx[j] = col(ref)
		}
		out = relalg.NewRelation(schema.Project(idx, nil))
	}
	var walk func(i int, acc relalg.Row)
	walk = func(i int, acc relalg.Row) {
		if i < len(inputs) {
			for _, r := range inputs[i] {
				walk(i+1, relalg.Row{
					Tuple: tuple.Concat(acc.Tuple, r.Tuple),
					Count: acc.Count * r.Count,
					TS:    relalg.MinTS(acc.TS, r.TS),
				})
			}
			return
		}
		for _, c := range q.Conds {
			if !tuple.Equal(acc.Tuple[col(c.A)], acc.Tuple[col(c.B)]) {
				return
			}
		}
		if q.Residual != nil && !q.Residual.Eval(acc.Tuple) {
			return
		}
		if q.Project != nil {
			proj := make(tuple.Tuple, len(q.Project))
			for j, ref := range q.Project {
				proj[j] = acc.Tuple[col(ref)]
			}
			acc.Tuple = proj
		}
		out.Rows = append(out.Rows, acc)
	}
	walk(0, relalg.Row{Count: 1, TS: relalg.NullTS})
	return out
}

// TestEvalQueryMatchesNestedLoop quick-checks the planner: every
// operator-tree plan must produce exactly the rows of a nested-loop
// evaluation of the same query, across randomized queries, with and
// without an index available.
func TestEvalQueryMatchesNestedLoop(t *testing.T) {
	for _, withIndex := range []bool{false, true} {
		r := rand.New(rand.NewSource(7))
		db := pipelineDB(t, r, withIndex)
		for trial := 0; trial < 120; trial++ {
			q := randomQuery(r, 2+r.Intn(2))
			label := fmt.Sprintf("index=%v trial=%d q=%s", withIndex, trial, q)

			tx := db.Begin()
			got, err := tx.EvalQuery(q)
			if err != nil {
				tx.Abort()
				t.Fatalf("%s: EvalQuery: %v", label, err)
			}
			tx.Commit()

			identicalRelations(t, label, got, nestedLoopEval(t, db, q))
		}
	}
}

// TestIndexProbeVsHashJoinAgreement runs the same delta ⋈ base query on
// two databases that differ only in whether the base column is indexed, so
// the planner takes the index-nested-loop path on one and the streaming
// hash-join path on the other. Results must be identical, and the indexed
// plan must actually have probed.
func TestIndexProbeVsHashJoinAgreement(t *testing.T) {
	run := func(withIndex bool) (*relalg.Relation, Stats) {
		r := rand.New(rand.NewSource(11))
		db := pipelineDB(t, r, withIndex)
		q := &Query{
			Inputs: []Input{
				{Kind: InputDelta, Table: "t2", Lo: 0, Hi: 10},
				{Kind: InputBase, Table: "t1"},
			},
			Conds: []JoinCond{{A: ColRef{Input: 0, Col: 0}, B: ColRef{Input: 1, Col: 0}}},
		}
		tx := db.Begin()
		rel, err := tx.EvalQuery(q)
		if err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		tx.Commit()
		return rel, db.Stats()
	}
	indexed, indexedStats := run(true)
	hashed, hashedStats := run(false)
	identicalRelations(t, "index vs hash", indexed, hashed)
	if indexedStats.IndexProbes == 0 {
		t.Fatal("indexed plan did not use index probes")
	}
	if hashedStats.IndexProbes != 0 {
		t.Fatal("unindexed plan reported index probes")
	}
}
