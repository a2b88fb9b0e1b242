package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	rollingjoin "repro"
	"repro/internal/wal"
)

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestShortRunEmitsEveryMetric runs every workload at a twentieth of its
// size for two seconds, untraced and traced, and checks that each run
// passes its correctness gate and reports exactly the metrics
// BENCHMARK.json lists. In a traced run the spans must cover the traced
// steady phase alone: one commit span per user commit it made.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			commitSpans, commits := -1, -1
			res, err := run(runOpts{
				workload: name, seed: 7, seconds: 2, trace: trace,
				scale: 0.05, dir: t.TempDir(), log: io.Discard,
				onTrace: func(spans map[string]*spanStats, r *loadResult) {
					commitSpans, commits = 0, r.commits
					for _, n := range []string{"commit", "http.commit"} {
						if st := spans[n]; st != nil {
							commitSpans += st.count
						}
					}
				},
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
				if commits < 1 || commitSpans != commits {
					t.Errorf("%s: %d commit spans for %d traced commits", name, commitSpans, commits)
				}
			}
			if got := sortedNames(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, trace, got, want)
			}
		}
	}
}

// TestSpansPerCommit traces ten commits of four spans each and checks the
// per-commit span count, which leaves out the one background span.
func TestSpansPerCommit(t *testing.T) {
	tr := newTracer()
	dev := newCountingDevice(wal.NewMemDevice(), tr)
	tr.start()
	for i := 0; i < 10; i++ {
		root := tr.begin("commit")
		id := tr.begin("tx.insert")
		tr.end(id)
		id = tr.begin("tx.commit")
		dev.Append([]byte("commit"))
		tr.end(id)
		tr.end(root)
	}
	tr.stop()
	r := newLoadResult()
	r.commits = 10
	m := newMetrics()
	layerMetrics(m, tr.summarize(), counters{}, counters{}, r, newLoadResult())
	if got := m.values["trace.spans_per_commit"].Value; got != 4 {
		t.Errorf("trace.spans_per_commit = %v, want 4", got)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if res, err := run(runOpts{workload: "nope", seconds: 1, scale: 1, dir: t.TempDir(), log: io.Discard}); err == nil || res != nil {
		t.Fatalf("run(nope) = %v, %v; want an error and no result", res, err)
	}
}

// syncCounter is a device that counts the syncs reaching it.
type syncCounter struct {
	*wal.MemDevice
	syncs int
}

func (d *syncCounter) Sync() error {
	d.syncs++
	return d.MemDevice.Sync()
}

func TestCountingDeviceRoundTrip(t *testing.T) {
	inner := &syncCounter{MemDevice: wal.NewMemDevice()}
	dev := newCountingDevice(inner, newTracer())
	r := rand.New(rand.NewSource(1))
	var want []byte
	for i := 0; i < 50; i++ {
		p := make([]byte, r.Intn(300))
		r.Read(p)
		if err := dev.Append(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p...)
		if i%10 == 0 {
			if err := dev.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if dev.Size() != int64(len(want)) {
		t.Fatalf("size %d, want %d", dev.Size(), len(want))
	}
	got := make([]byte, len(want))
	if n, err := dev.ReadAt(got, 0); err != nil && err != io.EOF || n != len(want) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes read back differ from bytes appended")
	}
	c := dev.counts()
	if c.appends != 50 || c.bytes != int64(len(want)) || c.syncs != 5 || inner.syncs != 5 {
		t.Fatalf("counts %+v, inner syncs %d; want 50 appends, %d bytes, 5 syncs reaching the device", c, len(want), inner.syncs)
	}
	if err := dev.Truncate(10); err != nil || inner.Size() != 10 {
		t.Fatalf("Truncate: %v, inner size %d", err, inner.Size())
	}
}

// subtreeSelf sums the self times of span i and every span below it.
func subtreeSelf(spans []span, self []time.Duration, i int32) time.Duration {
	total := self[i]
	for j := range spans {
		if spans[j].parent == i {
			total += subtreeSelf(spans, self, int32(j))
		}
	}
	return total
}

func TestSelfTimesSumToParentDuration(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "commit", parent: noSpan, start: at(0), end: at(100)},
		{name: "tx.insert", parent: 0, start: at(10), end: at(20)},
		{name: "tx.commit", parent: 0, start: at(30), end: at(90)},
		{name: "wal.append", parent: 2, start: at(35), end: at(40)},
		{name: "wal.sync", parent: 2, start: at(40), end: at(70)},
	}
	self := selfTimes(spans)
	want := []time.Duration{30, 10, 25, 5, 30}
	for i := range want {
		if self[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want[i]*time.Millisecond)
		}
	}
	if got := subtreeSelf(spans, self, 0); got != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the root's 100ms", got)
	}

	// The same property on spans recorded through the tracer: a commit
	// whose transaction calls reach a counting device.
	tr := newTracer()
	dev := newCountingDevice(wal.NewMemDevice(), tr)
	tr.start()
	root := tr.begin("commit")
	for i := 0; i < 3; i++ {
		id := tr.begin("tx.insert")
		dev.Append([]byte("record"))
		tr.end(id)
	}
	id := tr.begin("tx.commit")
	dev.Append([]byte("commit"))
	dev.Sync()
	tr.end(id)
	tr.end(root)
	dev.Sync() // no span open on this goroutine: parented to background
	tr.stop()
	spans = tr.spans
	self = selfTimes(spans)
	if got, want := subtreeSelf(spans, self, root), spans[root].end.Sub(spans[root].start); got != want {
		t.Errorf("recorded self times sum to %v, want the commit span's %v", got, want)
	}
	for i, s := range spans {
		switch s.name {
		case "wal.append", "wal.sync":
			if p := spans[s.parent].name; p != "tx.insert" && p != "tx.commit" && p != "background" {
				t.Errorf("span %d %s has parent %s", i, s.name, p)
			}
		}
	}
	if last := spans[len(spans)-1]; last.name != "wal.sync" || spans[last.parent].name != "background" {
		t.Errorf("device call outside a commit: %s under %s, want wal.sync under background", last.name, spans[last.parent].name)
	}
}

func TestSameRowsDetectsDifference(t *testing.T) {
	a := []rollingjoin.Tuple{{rollingjoin.Int(1), rollingjoin.Int(2)}, {rollingjoin.Int(3), rollingjoin.Int(4)}}
	b := []rollingjoin.Tuple{{rollingjoin.Int(3), rollingjoin.Int(4)}, {rollingjoin.Int(1), rollingjoin.Int(2)}}
	if err := sameRows("v", a, b); err != nil {
		t.Errorf("same multiset in another order: %v", err)
	}
	c := []rollingjoin.Tuple{{rollingjoin.Int(1), rollingjoin.Int(2)}, {rollingjoin.Int(1), rollingjoin.Int(2)}}
	if err := sameRows("v", a, c); err == nil {
		t.Error("different multisets of the same size compared equal")
	}
	if err := sameRows("v", a, a[:1]); err == nil {
		t.Error("different sizes compared equal")
	}
}

// TestStreamKeepsState checks that the write stream keeps what readers see
// the same size: the live fact keys stay the base load's multiset, and the
// number of keys in hot groups stays the same.
func TestStreamKeepsState(t *testing.T) {
	w := workloads["replica-http"]
	g := newGen(w, 3)
	count := func(keys []int64) map[int64]int {
		m := map[int64]int{}
		for _, k := range keys {
			m[k]++
		}
		return m
	}
	hot := func() int {
		n := 0
		for _, grp := range g.group[0] {
			if grp < int64(w.hotGroups) {
				n++
			}
		}
		return n
	}
	for i := 0; i < w.factRows; i++ {
		g.factRow(g.baseK[i])
	}
	base, hot0 := count(g.live), hot()
	if want := dimRows * w.hotGroups / groups; hot0 != want {
		t.Errorf("%d hot keys in the base load, want %d", hot0, want)
	}
	for k, n := range base {
		if n != w.factRows/dimRows {
			t.Fatalf("key %d has %d base facts, want %d", k, n, w.factRows/dimRows)
		}
	}
	for i := 0; i < 5000; i++ {
		g.next()
	}
	if !reflect.DeepEqual(count(g.live), base) {
		t.Error("live fact keys drifted from the base load's")
	}
	if h := hot(); h != hot0 {
		t.Errorf("%d hot keys after the stream, want %d", h, hot0)
	}
}

func TestWindowedFigure(t *testing.T) {
	t0 := time.Unix(0, 0)
	// Thirteen windows of 100 samples; window i's samples are all i+1 ms,
	// so its p50 and p99 are i+1 ms. The figure is the second fastest.
	ws := make([]latencies, 13)
	for i := range ws {
		for j := 0; j < 100; j++ {
			ws[i].add(t0, float64(i+1)/1e3)
		}
	}
	for _, q := range []float64{0.5, 0.99} {
		if got := windowedMS(ws, q); math.Abs(got-2) > 1e-9 {
			t.Errorf("windowed q%v over 13 windows = %v ms, want 2", q, got)
		}
	}
	// With fewer than ten windows it is the fastest.
	if got := windowedMS(ws[3:6], 0.5); math.Abs(got-4) > 1e-9 {
		t.Errorf("windowed p50 over 3 windows = %v ms, want 4", got)
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

// TestInterleave checks that interleave keeps a multiset of keys, and that
// no prefix of the skewed base load gives its second most frequent key the
// engine's heavy-key share of 1/8.
func TestInterleave(t *testing.T) {
	count := func(keys []int64) map[int64]int {
		m := map[int64]int{}
		for _, k := range keys {
			m[k]++
		}
		return m
	}
	g := newGen(workloads["skew-cascade"], 5)
	if n := count(g.baseK)[1]; n*8 >= len(g.baseK) {
		t.Fatalf("key 1 has %d of %d base facts; the check needs it under 1/8", n, len(g.baseK))
	}
	seen := 0
	for i, k := range g.baseK {
		if k == 1 {
			seen++
		}
		if n := i + 1; n >= 100 && seen*8 >= n {
			t.Fatalf("key 1 holds %d of the first %d keys", seen, n)
		}
	}
	keys := []int64{3, 1, 1, 2, 1, 3, 1, 1}
	want := count(keys)
	interleave(keys, rand.New(rand.NewSource(1)))
	if got := count(keys); !reflect.DeepEqual(got, want) {
		t.Errorf("interleave changed the multiset: %v, want %v", got, want)
	}
}

// sortedNames returns a metric set's names in order.
func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
