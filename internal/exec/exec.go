// Package exec is the physical-plan layer: a batched iterator ("Volcano
// with vectors") operator protocol over reusable columnar batches. The
// engine planner lowers each propagation query to a tree of these
// operators, so deltas stream through the pipeline instead of
// materializing every input and every intermediate join result as a
// relalg.Relation — the shape DBSP and DBToaster show is required for
// incremental maintenance to pay off at scale.
//
// Protocol: Open prepares the operator (acquiring latches, building hash
// tables); Next fills the caller-provided batch and reports whether it
// produced any rows — a false return means the operator is exhausted, and a
// true return carries at least one row; Close releases resources and must
// be idempotent. Operators own the batches they hand to their children and
// check them into their Arena (when attached) at Close; filters narrow
// batches with selection vectors and projections permute columns in place,
// so a steady-state pipeline moves column payloads without allocating.
package exec

import (
	"sync"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// DefaultBatchSize is the batch row-capacity operators use when their
// Size field is zero — the pipeline's vectorization knob. Larger batches
// amortize per-batch overhead; smaller batches keep intermediate working
// sets cache-resident. Per-database values come from engine.Config
// (ROLLINGJOIN_BATCH); operators may overshoot when a single probe row
// fans out to many matches.
const DefaultBatchSize = 256

func batchSize(n int) int {
	if n > 0 {
		return n
	}
	return DefaultBatchSize
}

// batchPool is the global fallback recycler used by operators with no
// Arena attached (hand-built trees in tests, one-off drains).
var batchPool = sync.Pool{New: func() any { return relalg.NewBatch(DefaultBatchSize) }}

func getBatch() *relalg.Batch {
	b := batchPool.Get().(*relalg.Batch)
	b.Reset()
	return b
}

func putBatch(b *relalg.Batch) {
	if b == nil {
		return
	}
	batchPool.Put(b)
}

// Operator is one node of a physical plan.
type Operator interface {
	// Open prepares the operator for iteration.
	Open() error
	// Next resets out and fills it with the next rows. It returns false
	// when the operator is exhausted; a true return has >= 1 row in out.
	Next(out *relalg.Batch) (bool, error)
	// Close releases the operator's resources. It must be idempotent and
	// safe to call after a failed Open.
	Close() error
}

// Collect drains op into a materialized relation with the given schema —
// the materialize-at-the-root adapter that keeps the relalg.Relation API
// (and the correctness oracles built on it) working unchanged.
func Collect(op Operator, schema *tuple.Schema) (*relalg.Relation, error) {
	out := relalg.NewRelation(schema)
	_, _, err := Drain(op, func(b *relalg.Batch) error {
		out.Rows = b.MaterializeInto(out.Rows)
		return nil
	})
	return out, err
}

// Drain opens op, feeds every batch to sink, and closes it, returning the
// row and batch counts. The batch passed to sink is reused across calls;
// the sink must copy rows it wants to keep.
func Drain(op Operator, sink func(*relalg.Batch) error) (rows, batches int64, err error) {
	return DrainWith(op, nil, 0, sink)
}

// DrainWith is Drain with an explicit arena (nil falls back to the
// global pool) and batch-capacity hint for the root batch.
func DrainWith(op Operator, a *Arena, size int, sink func(*relalg.Batch) error) (rows, batches int64, err error) {
	if err := op.Open(); err != nil {
		op.Close()
		return 0, 0, err
	}
	defer op.Close()
	b := a.Batch(batchSize(size))
	defer a.PutBatch(b)
	for {
		ok, err := op.Next(b)
		if err != nil {
			return rows, batches, err
		}
		if !ok {
			return rows, batches, nil
		}
		rows += int64(b.Len())
		batches++
		if err := sink(b); err != nil {
			return rows, batches, err
		}
	}
}

// RelationScan streams a materialized relation in batches, applying an
// optional pushdown predicate. It backs delta windows that are already
// materialized and the engine's InputRelation positions.
type RelationScan struct {
	Rel  *relalg.Relation
	Pred relalg.Predicate
	// Size caps rows per batch; 0 means DefaultBatchSize.
	Size int

	pos int
}

// NewRelationScan returns a scan over rel with an optional predicate.
func NewRelationScan(rel *relalg.Relation, pred relalg.Predicate) *RelationScan {
	return &RelationScan{Rel: rel, Pred: pred}
}

// Open implements Operator.
func (s *RelationScan) Open() error {
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *RelationScan) Next(out *relalg.Batch) (bool, error) {
	out.Reset()
	max := batchSize(s.Size)
	for s.pos < len(s.Rel.Rows) && out.Len() < max {
		row := s.Rel.Rows[s.pos]
		s.pos++
		if s.Pred != nil && !s.Pred.Eval(row.Tuple) {
			continue
		}
		out.Append(row)
	}
	return out.Len() > 0, nil
}

// Close implements Operator.
func (s *RelationScan) Close() error { return nil }

// Filter narrows each child batch to the rows satisfying Pred, in place
// via the batch's selection vector — no rows are copied.
type Filter struct {
	Child Operator
	Pred  relalg.Predicate
	// OnFilter, when set, observes each non-empty child batch as
	// (rows in, rows kept) — the selection-vector stats hook.
	OnFilter func(in, kept int)
}

// Open implements Operator.
func (f *Filter) Open() error { return f.Child.Open() }

// Next implements Operator.
func (f *Filter) Next(out *relalg.Batch) (bool, error) {
	for {
		ok, err := f.Child.Next(out)
		if err != nil || !ok {
			return false, err
		}
		in := out.Len()
		relalg.FilterBatch(f.Pred, out)
		if f.OnFilter != nil {
			f.OnFilter(in, out.Len())
		}
		if out.Len() > 0 {
			return true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// Project maps each child batch onto the columns at Idx (the batched
// form of relalg.Project; it also serves as the column-permutation step
// restoring declaration order after a reordered join pipeline). In the
// columnar layout this is a column move, not a copy.
type Project struct {
	Child Operator
	Idx   []int
}

// Open implements Operator.
func (p *Project) Open() error { return p.Child.Open() }

// Next implements Operator.
func (p *Project) Next(out *relalg.Batch) (bool, error) {
	ok, err := p.Child.Next(out)
	if err != nil || !ok {
		return false, err
	}
	out.ProjectInPlace(p.Idx)
	return out.Len() > 0, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// Tap invokes OnBatch on every batch flowing through it (stats hooks).
type Tap struct {
	Child   Operator
	OnBatch func(rows int)
}

// Open implements Operator.
func (t *Tap) Open() error { return t.Child.Open() }

// Next implements Operator.
func (t *Tap) Next(out *relalg.Batch) (bool, error) {
	ok, err := t.Child.Next(out)
	if ok && t.OnBatch != nil {
		t.OnBatch(out.Len())
	}
	return ok, err
}

// Close implements Operator.
func (t *Tap) Close() error { return t.Child.Close() }
