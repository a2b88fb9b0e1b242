package main

import (
	"runtime/metrics"
	"time"

	rollingjoin "repro"
	"repro/internal/engine"
)

// counters is one snapshot of every public counter the per-layer metrics
// are differences of.
type counters struct {
	at   time.Time
	last rollingjoin.CSN
	eng  engine.Stats // the writer's node
	// engFollower is the follower's engine in replica-http (zero elsewhere).
	engFollower engine.Stats
	dev         deviceCounts
	fwd         int64 // forward propagation queries, summed over views
	comp        int64 // compensation queries
	skipped     int64 // empty windows skipped
	deltas      int64 // view delta rows produced
	folded      int64 // source rows folded by aggregates
	shipped     int64 // WAL bytes received by the follower
	reconn      int64 // tailer reconnects
	readBytes   int64 // HTTP response bytes of reads
	alloc       uint64
	gcCPU       float64 // cumulative GC CPU seconds
	allCPU      float64 // cumulative CPU seconds
}

// collect snapshots db, its WAL device and the maintained relations.
func collect(db *rollingjoin.DB, dev *countingDevice, levels []maintainedRel) counters {
	c := counters{at: time.Now(), last: db.LastCSN(), eng: db.Engine().Stats(), dev: dev.counts()}
	for _, l := range levels {
		switch v := l.(type) {
		case *rollingjoin.View:
			st := v.Stats()
			c.fwd += st.ForwardQueries
			c.comp += st.CompensationQueries
			c.skipped += st.SkippedEmptyWindows
			c.deltas += st.DeltaRowsProduced
		case *rollingjoin.AggregateView:
			st := v.Stats()
			c.folded += st.SourceRowsFolded
			c.deltas += st.DeltaRowsProduced
		}
	}
	c.alloc, c.gcCPU, c.allCPU = readRuntime()
	return c
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() (alloc uint64, gcCPU, allCPU float64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		allCPU = s[2].Value.Float64()
	}
	return alloc, gcCPU, allCPU
}

var liveHeapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeapBytes returns the heap the last garbage collection marked live.
// Only the observer goroutine calls it.
func liveHeapBytes() float64 {
	metrics.Read(liveHeapSample)
	if liveHeapSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(liveHeapSample[0].Value.Uint64())
}
