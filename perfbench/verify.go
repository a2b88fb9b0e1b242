package main

import (
	"fmt"
	"sort"

	rollingjoin "repro"
	"repro/internal/tuple"
)

// encodeSorted renders rows in the storage encoding, sorted: two multisets
// of rows are equal exactly when these slices are.
func encodeSorted(rows []rollingjoin.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(tuple.EncodeRow(nil, tuple.Tuple(r)))
	}
	sort.Strings(out)
	return out
}

// sameRows compares two row multisets byte for byte.
func sameRows(what string, got, want []rollingjoin.Tuple) error {
	g, w := encodeSorted(got), encodeSorted(want)
	if len(g) != len(w) {
		return fmt.Errorf("%s: %d rows, recomputation has %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("%s: row multiset differs from recomputation (%d rows)", what, len(g))
		}
	}
	return nil
}

// checkView compares v at target with a recomputation of its spec over the
// current committed state, which equals the state at target because the
// caller has quiesced writes after target.
func checkView(db *rollingjoin.DB, v *rollingjoin.View, spec rollingjoin.ViewSpec, target rollingjoin.CSN) error {
	got, err := v.MaterializeAt(target)
	if err != nil {
		return fmt.Errorf("%s: materialize at %d: %w", spec.Name, target, err)
	}
	want, err := db.Query(spec)
	if err != nil {
		return fmt.Errorf("%s: recompute: %w", spec.Name, err)
	}
	return sameRows(spec.Name, got, want.Rows)
}

// checkCascade checks every cascade level: the join view against its query,
// the aggregate against a grouping of that query's rows (output columns id,
// amt, g), and the top view against the groups that pass its filter.
func checkCascade(db *rollingjoin.DB, vj *rollingjoin.View, join rollingjoin.ViewSpec,
	va *rollingjoin.AggregateView, vt *rollingjoin.View, hotGroups int, target rollingjoin.CSN) error {
	if err := checkView(db, vj, join, target); err != nil {
		return err
	}
	res, err := db.Query(join)
	if err != nil {
		return fmt.Errorf("%s: recompute: %w", join.Name, err)
	}
	type group struct{ count, sum, min, max int64 }
	groups := make(map[int64]*group)
	for _, r := range res.Rows {
		amt, g := r[1].AsInt(), r[2].AsInt()
		gr := groups[g]
		if gr == nil {
			gr = &group{min: amt, max: amt}
			groups[g] = gr
		}
		gr.count++
		gr.sum += amt
		gr.min = min(gr.min, amt)
		gr.max = max(gr.max, amt)
	}
	var want, wantTop []rollingjoin.Tuple
	for g, gr := range groups {
		row := rollingjoin.Tuple{rollingjoin.Int(g), rollingjoin.Int(gr.count),
			rollingjoin.Float(float64(gr.sum)), rollingjoin.Int(gr.min), rollingjoin.Int(gr.max)}
		want = append(want, row)
		if g < int64(hotGroups) {
			wantTop = append(wantTop, row)
		}
	}
	if mt := va.MatTime(); mt < target {
		return fmt.Errorf("%s: materialized at %d, below %d", va.Name(), mt, target)
	}
	if err := sameRows(va.Name(), va.Rows(), want); err != nil {
		return err
	}
	got, err := vt.MaterializeAt(target)
	if err != nil {
		return fmt.Errorf("%s: materialize at %d: %w", vt.Name(), target, err)
	}
	return sameRows(vt.Name(), got, wantTop)
}
