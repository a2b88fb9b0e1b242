package main

import (
	"fmt"
	"math/rand"
	"sort"

	rollingjoin "repro"
)

// The schema every workload shares: a fact table with one foreign key per
// dimension, an id and an amount, and dimension tables mapping a key to a
// group. The first fact column is the first foreign key, so with
// Partitions > 1 the fact table and dim1 are co-partitioned on it.
func factTable() string       { return "fact" }
func dimTable(d int) string   { return fmt.Sprintf("dim%d", d+1) }
func factKeyCol(d int) string { return fmt.Sprintf("k%d", d+1) }
func factColumns(dims int) []rollingjoin.Column {
	cols := make([]rollingjoin.Column, 0, dims+2)
	for d := 0; d < dims; d++ {
		cols = append(cols, rollingjoin.Col(factKeyCol(d), rollingjoin.TypeInt))
	}
	return append(cols, rollingjoin.Col("id", rollingjoin.TypeInt), rollingjoin.Col("amt", rollingjoin.TypeInt))
}

var dimColumns = []rollingjoin.Column{
	rollingjoin.Col("k", rollingjoin.TypeInt),
	rollingjoin.Col("g", rollingjoin.TypeInt),
}

// op is one user transaction of the write stream: a delete of table's rows
// by key (when keyCol is set), then an insert of row (when set). A fact
// delete removes one row of the oldest live fact's key, a fact insert adds
// a new fact, and a dimension update replaces a key's row with one in a new
// group.
type op struct {
	table  string
	keyCol string
	key    int64
	limit  int // rows the delete may remove (0: every match)
	row    []rollingjoin.Value
}

// gen draws a workload's base load and operation stream from one seeded
// source, so the same seed gives the same inputs. The stream keeps what
// readers see the same size, so every steady window measures one state:
// fact inserts and deletes alternate, each delete removes a row of the
// oldest live fact's key and the next insert adds a new fact with that key,
// so the fact table keeps its size and its keys. Uniform base keys are
// spread evenly (every key factRows/1000 times, give or take one). Key k
// starts in group k mod groups, so every group holds as many keys and the
// Zipf keys' weights fall on the same groups whatever the seed, and a
// dimension update keeps a hot key hot and a cold key cold. So neither the
// size of the view readers use nor the share of the writes that reach it
// depends on the seed.
type gen struct {
	w      workloadConfig
	r      *rand.Rand
	baseK  []int64 // k1 of each base fact, in load order
	nextID int64
	live   []int64   // k1 of every live fact, oldest first
	freed  int64     // k1 of the last deleted fact, which the next insert takes
	group  [][]int64 // group of each key, per dimension
	ops    int       // operations drawn by next
	delete bool      // the next fact operation is a delete
}

func newGen(w workloadConfig, seed int64) *gen {
	g := &gen{w: w, r: rand.New(rand.NewSource(seed))}
	g.baseK = make([]int64, w.factRows)
	if w.keySkew > 1 {
		z := rand.NewZipf(g.r, w.keySkew, 1, uint64(dimRows-1))
		for i := range g.baseK {
			g.baseK[i] = int64(z.Uint64())
		}
		interleave(g.baseK, g.r)
	} else {
		perm := g.r.Perm(dimRows)
		for i := range g.baseK {
			g.baseK[i] = int64(perm[i%dimRows])
		}
	}
	for d := 0; d < w.dims; d++ {
		gs := make([]int64, dimRows)
		for k := range gs {
			gs[k] = int64(k % groups)
		}
		g.group = append(g.group, gs)
	}
	return g
}

// interleave orders keys so that every prefix holds each key in about its
// share of the whole: the j-th of a key's n occurrences goes to position
// (j+u)/n, with one phase u in [0,1) drawn from r per key. The stream
// deletes facts oldest first, so it replays this order. The engine's heavy-key sketch promotes a key at 1/8 of the change
// traffic and demotes it below 1/16; in a drawn order the second Zipf key,
// at about a tenth, crossed 1/8 early in some seeds and stayed heavy, and
// the live heap differed by a fifth between seeds.
func interleave(keys []int64, r *rand.Rand) {
	n := map[int64]int{}
	for _, k := range keys {
		n[k]++
	}
	phase := map[int64]float64{}
	for k := int64(0); k < dimRows; k++ {
		phase[k] = r.Float64()
	}
	type occ struct {
		pos float64
		key int64
	}
	seen := map[int64]int{}
	occs := make([]occ, len(keys))
	for i, k := range keys {
		occs[i] = occ{(float64(seen[k]) + phase[k]) / float64(n[k]), k}
		seen[k]++
	}
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].pos != occs[j].pos {
			return occs[i].pos < occs[j].pos
		}
		return occs[i].key < occs[j].key
	})
	for i, o := range occs {
		keys[i] = o.key
	}
}

func (g *gen) factRow(k int64) []rollingjoin.Value {
	g.live = append(g.live, k)
	row := make([]rollingjoin.Value, 0, g.w.dims+2)
	row = append(row, rollingjoin.Int(k))
	for d := 1; d < g.w.dims; d++ {
		row = append(row, rollingjoin.Int(g.r.Int63n(dimRows)))
	}
	g.nextID++
	return append(row, rollingjoin.Int(g.nextID), rollingjoin.Int(g.r.Int63n(1000)))
}

func (g *gen) dimRow(d int, k int64) []rollingjoin.Value {
	return []rollingjoin.Value{rollingjoin.Int(k), rollingjoin.Int(g.group[d][k])}
}

// regroup moves key k of dimension d to a new group, drawn among the hot
// groups for a hot key and among the others for a cold one.
func (g *gen) regroup(d int, k int64) {
	lo, n := int64(0), int64(groups)
	if h := int64(g.w.hotGroups); h > 0 {
		if g.group[d][k] < h {
			n = h
		} else {
			lo, n = h, groups-h
		}
	}
	g.group[d][k] = lo + g.r.Int63n(n)
}

// load inserts the base rows: every dimension key once, then factRows
// facts, in one transaction per table.
func (g *gen) load(db *rollingjoin.DB) error {
	for d := 0; d < g.w.dims; d++ {
		if _, err := db.Update(func(tx *rollingjoin.Tx) error {
			for k := 0; k < dimRows; k++ {
				if err := tx.Insert(dimTable(d), g.dimRow(d, int64(k))...); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("load %s: %w", dimTable(d), err)
		}
	}
	if _, err := db.Update(func(tx *rollingjoin.Tx) error {
		for i := 0; i < g.w.factRows; i++ {
			if err := tx.Insert(factTable(), g.factRow(g.baseK[i])...); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("load fact: %w", err)
	}
	return nil
}

// next draws the next operation of the write stream.
func (g *gen) next() op {
	g.ops++
	if g.ops%dimUpdateEvery == 0 {
		d := g.r.Intn(g.w.dims)
		k := g.r.Int63n(dimRows)
		g.regroup(d, k)
		return op{table: dimTable(d), keyCol: "k", key: k, row: g.dimRow(d, k)}
	}
	g.delete = !g.delete
	if !g.delete {
		return op{table: factTable(), row: g.factRow(g.freed)}
	}
	g.freed = g.live[0]
	g.live = g.live[1:]
	return op{table: factTable(), keyCol: factKeyCol(0), key: g.freed, limit: 1}
}
