package main

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// layer. A span opened on a goroutine becomes the parent of spans that
// goroutine opens until it ends, so WAL device calls made inside a commit
// nest under that commit's call; calls on goroutines with no open span
// (maintenance workers) are parented to one background span. While off,
// begin returns noSpan and end ignores it, so untraced runs pay one atomic
// load per call site.
type tracer struct {
	on atomic.Bool

	mu         sync.Mutex
	spans      []span
	stacks     map[uint64][]int32
	background int32
}

type span struct {
	name       string
	parent     int32
	start, end time.Time
}

const noSpan int32 = -1

func newTracer() *tracer {
	return &tracer{stacks: make(map[uint64][]int32), background: noSpan}
}

// start switches recording on and opens the background span.
func (t *tracer) start() {
	t.mu.Lock()
	t.background = int32(len(t.spans))
	t.spans = append(t.spans, span{name: "background", parent: noSpan, start: time.Now()})
	t.mu.Unlock()
	t.on.Store(true)
}

// stop switches recording off and closes every span still open.
func (t *tracer) stop() {
	t.on.Store(false)
	now := time.Now()
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].end.IsZero() {
			t.spans[i].end = now
		}
	}
	t.stacks = make(map[uint64][]int32)
	t.mu.Unlock()
}

// begin opens a span on the calling goroutine, under the innermost span
// the goroutine has open.
func (t *tracer) begin(name string) int32 { return t.beginUnder(name, noSpan) }

// beginUnder opens a span on the calling goroutine under parent, which
// names a span opened on another goroutine (the client side of an HTTP
// request); noSpan means the goroutine's innermost open span.
func (t *tracer) beginUnder(name string, parent int32) int32 {
	if !t.on.Load() {
		return noSpan
	}
	g := goid()
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == noSpan || int(parent) >= len(t.spans) {
		parent = t.background
		if st := t.stacks[g]; len(st) > 0 {
			parent = st[len(st)-1]
		}
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: now})
	t.stacks[g] = append(t.stacks[g], id)
	return id
}

// end closes a span opened by begin on the same goroutine.
func (t *tracer) end(id int32) {
	if id == noSpan {
		return
	}
	now := time.Now()
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) || !t.spans[id].end.IsZero() {
		return // closed by stop
	}
	t.spans[id].end = now
	st := t.stacks[g]
	if len(st) > 0 && st[len(st)-1] == id {
		t.stacks[g] = st[:len(st)-1]
	}
}

// record adds a finished span whose interval was measured elsewhere (the
// freshness stages, which the observer sees only after the fact).
func (t *tracer) record(name string, parent int32, start, end time.Time) int32 {
	if !t.on.Load() {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
	return id
}

// spanStats is the per-name view of a finished trace.
type spanStats struct {
	count int
	dur   []float64 // seconds, per span
	self  []float64 // seconds, per span
}

// summarize computes every span's self time, its duration minus the part
// of its interval that its children cover, and groups both by span name.
func (t *tracer) summarize() map[string]*spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	out := make(map[string]*spanStats)
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.count++
		st.dur = append(st.dur, s.end.Sub(s.start).Seconds())
		st.self = append(st.self, self[i].Seconds())
	}
	return out
}

// selfTimes returns each span's duration minus the length of the union of
// its children's intervals clipped to its own.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make([]time.Duration, len(spans))
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := spans[c].start, spans[c].end
			if lo.Before(s.start) {
				lo = s.start
			}
			if hi.After(s.end) {
				hi = s.end
			}
			if hi.After(lo) {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
		var covered time.Duration
		var curLo, curHi time.Time
		for j, v := range ivs {
			if j == 0 || v.lo.After(curHi) {
				covered += curHi.Sub(curLo)
				curLo, curHi = v.lo, v.hi
			} else if v.hi.After(curHi) {
				curHi = v.hi
			}
		}
		covered += curHi.Sub(curLo)
		out[i] = s.end.Sub(s.start) - covered
	}
	return out
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack trace ("goroutine 42 [running]:"). It costs about a
// microsecond, which only traced runs pay.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
