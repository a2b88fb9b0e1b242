package relalg

import (
	"fmt"

	"repro/internal/tuple"
)

// CmpOp is a comparison operator for predicates.
type CmpOp uint8

// The supported comparison operators.
const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return "?"
	}
}

func (op CmpOp) eval(c int) bool {
	switch op {
	case OpEQ:
		return c == 0
	case OpNE:
		return c != 0
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	case OpGE:
		return c >= 0
	default:
		return false
	}
}

// Predicate evaluates a boolean condition over a tuple. Predicates must be
// deterministic and must not examine the count or timestamp attributes,
// matching the paper's requirement for σ in the φ-commutation properties.
type Predicate interface {
	Eval(t tuple.Tuple) bool
	String() string
}

// ColConst compares the column at index Col with a constant.
type ColConst struct {
	Col int
	Op  CmpOp
	Val tuple.Value
}

// Eval implements Predicate.
func (p ColConst) Eval(t tuple.Tuple) bool {
	return p.Op.eval(tuple.Compare(t[p.Col], p.Val))
}

func (p ColConst) String() string {
	return fmt.Sprintf("col%d %s %s", p.Col, p.Op, p.Val)
}

// ColCol compares two columns of the same tuple.
type ColCol struct {
	ColA int
	Op   CmpOp
	ColB int
}

// Eval implements Predicate.
func (p ColCol) Eval(t tuple.Tuple) bool {
	return p.Op.eval(tuple.Compare(t[p.ColA], t[p.ColB]))
}

func (p ColCol) String() string {
	return fmt.Sprintf("col%d %s col%d", p.ColA, p.Op, p.ColB)
}

// And is the conjunction of its children. An empty And is true.
type And []Predicate

// Eval implements Predicate.
func (p And) Eval(t tuple.Tuple) bool {
	for _, c := range p {
		if !c.Eval(t) {
			return false
		}
	}
	return true
}

func (p And) String() string {
	if len(p) == 0 {
		return "true"
	}
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = c.String()
	}
	return "(" + join(parts, " AND ") + ")"
}

// Or is the disjunction of its children. An empty Or is false.
type Or []Predicate

// Eval implements Predicate.
func (p Or) Eval(t tuple.Tuple) bool {
	for _, c := range p {
		if c.Eval(t) {
			return true
		}
	}
	return false
}

func (p Or) String() string {
	if len(p) == 0 {
		return "false"
	}
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = c.String()
	}
	return "(" + join(parts, " OR ") + ")"
}

// Not negates its child.
type Not struct{ P Predicate }

// Eval implements Predicate.
func (p Not) Eval(t tuple.Tuple) bool { return !p.P.Eval(t) }

func (p Not) String() string { return "NOT " + p.P.String() }

// True is the always-true predicate.
type True struct{}

// Eval implements Predicate.
func (True) Eval(tuple.Tuple) bool { return true }

func (True) String() string { return "true" }

// FilterBatch narrows b's selection to the rows satisfying p, the
// vectorized counterpart of per-row Predicate.Eval. Conjunctions narrow
// the selection once per conjunct; leaf comparisons over uniform typed
// columns run as dense typed loops against the column payloads, and
// everything else (mixed-kind columns, Or/Not trees) falls back to tuple.Compare semantics row by row, so both paths accept
// exactly the rows Eval would.
func FilterBatch(p Predicate, b *Batch) {
	switch q := p.(type) {
	case True:
		return
	case And:
		for _, c := range q {
			FilterBatch(c, b)
		}
		return
	case ColConst:
		if b.ncols > q.Col {
			filterColConst(q, b)
			return
		}
	case ColCol:
		if b.ncols > q.ColA && b.ncols > q.ColB {
			filterColCol(q, b)
			return
		}
	}
	b.Retain(func(i int) bool {
		b.scratch = b.tupleInto(b.scratch, i)
		return p.Eval(b.scratch)
	})
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpF64 compares with < and > only, so NaN orders "equal" to everything
// exactly as tuple.Compare does.
func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func filterColConst(q ColConst, b *Batch) {
	c := &b.cols[q.Col]
	switch {
	case c.uniform == uint8(tuple.KindInt) && q.Val.Kind() == tuple.KindInt:
		v := q.Val.AsInt()
		b.Retain(func(i int) bool { p := b.phys(i); return q.Op.eval(cmpI64(c.ints[c.idx[p]], v)) })
	case c.uniform == uint8(tuple.KindFloat) && q.Val.Kind() == tuple.KindFloat:
		v := q.Val.AsFloat()
		b.Retain(func(i int) bool { p := b.phys(i); return q.Op.eval(cmpF64(c.floats[c.idx[p]], v)) })
	default:
		b.Retain(func(i int) bool { return q.Op.eval(c.compareAt(b.phys(i), q.Val)) })
	}
}

func filterColCol(q ColCol, b *Batch) {
	ca, cb := &b.cols[q.ColA], &b.cols[q.ColB]
	switch {
	case ca.uniform == uint8(tuple.KindInt) && cb.uniform == uint8(tuple.KindInt):
		b.Retain(func(i int) bool {
			p := b.phys(i)
			return q.Op.eval(cmpI64(ca.ints[ca.idx[p]], cb.ints[cb.idx[p]]))
		})
	case ca.uniform == uint8(tuple.KindFloat) && cb.uniform == uint8(tuple.KindFloat):
		b.Retain(func(i int) bool {
			p := b.phys(i)
			return q.Op.eval(cmpF64(ca.floats[ca.idx[p]], cb.floats[cb.idx[p]]))
		})
	default:
		b.Retain(func(i int) bool {
			p := b.phys(i)
			return q.Op.eval(tuple.Compare(ca.valueAt(p), cb.valueAt(p)))
		})
	}
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}
