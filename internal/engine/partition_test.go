package engine

import (
	"fmt"
	"testing"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// TestSliceScansCoverDisjointly checks the contract propagation slicing
// rests on: one heavy slice per heavy key plus one light slice per
// partition (excluding the heavy keys) read every row of a partitioned
// delta window and heap exactly once. Each heavy key shares its shard
// with light keys (checked below), so a slice that leaked a shard-mate
// would count it twice.
func TestSliceScansCoverDisjointly(t *testing.T) {
	const parts = 4
	db, err := Open(Config{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	kv := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	if _, err := db.CreateTable("r", kv); err != nil {
		t.Fatal(err)
	}
	d, err := db.CreateDelta("r")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 60; i++ {
		row := tuple.Tuple{tuple.Int(int64(i % 12)), tuple.Int(int64(i))}
		mustExec(t, tx, tx.Insert("r", row))
		d.Append(relalg.CSN(1+i%5), int64(1-2*(i%3/2)), row)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var heavy [][]byte
	var specs []*PartSpec
	for _, k := range []int64{0, 5} {
		mates := 0
		for j := int64(0); j < 12; j++ {
			if j != k && hashPart(tuple.Int(j), parts) == hashPart(tuple.Int(k), parts) {
				mates++
			}
		}
		if mates == 0 {
			t.Fatalf("heavy key %d has no shard-mate", k)
		}
		enc := tuple.EncodeKeyValue(nil, tuple.Int(k))
		heavy = append(heavy, enc)
		specs = append(specs, &PartSpec{N: parts, Key: enc})
	}
	for p := 0; p < parts; p++ {
		specs = append(specs, &PartSpec{N: parts, Part: p, Not: heavy})
	}
	inputs := map[string]Input{
		"delta": {Kind: InputDelta, Table: "r", Lo: 0, Hi: 5},
		"heap":  {Kind: InputBase, Table: "r"},
	}
	for name, in := range inputs {
		eval := func(spec *PartSpec) *relalg.Relation {
			in := in
			in.Part = spec
			tx := db.Begin()
			rel, err := tx.EvalQuery(&Query{Inputs: []Input{in}})
			if err != nil {
				tx.Abort()
				t.Fatalf("%s slice %+v: %v", name, spec, err)
			}
			tx.Commit()
			return rel
		}
		want := eval(nil)
		got := relalg.NewRelation(want.Schema)
		for _, spec := range specs {
			got.Rows = append(got.Rows, eval(spec).Rows...)
		}
		identicalRelations(t, fmt.Sprintf("%s slices", name), got, want)
	}
}
