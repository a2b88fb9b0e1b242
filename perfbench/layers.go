package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/engine"
)

// layerMetrics derives the per-layer metrics of a traced steady phase from
// the span summary, the counter snapshots c0 and c1 taken around it, and
// the observer's stage latencies. base is the untraced half of the steady
// phase, the baseline for the tracing overhead. Per-commit ratios divide by
// the user commits of the traced half.
func layerMetrics(m *metricSet, spans map[string]*spanStats, c0, c1 counters, r, base *loadResult) {
	commits := float64(r.commits)
	per := func(x int64) float64 { return ratio(float64(x), commits) }
	secs := c1.at.Sub(c0.at).Seconds()
	self := func(name string, q float64) float64 {
		if st := spans[name]; st != nil {
			return quantile(st.self, q)
		}
		return 0
	}
	dur := func(name string, q float64) float64 {
		if st := spans[name]; st != nil {
			return quantile(st.dur, q)
		}
		return 0
	}
	e0, e1 := engineTotals(c0), engineTotals(c1)
	t0, t1 := c0.eng.Txn, c1.eng.Txn

	m.set("txn.insert_p50_us", "us", self("tx.insert", 0.5)*1e6)
	m.set("txn.delete_p50_us", "us", self("tx.delete", 0.5)*1e6)
	m.set("txn.delete_p99_ms", "ms", self("tx.delete", 0.99)*1e3)
	m.set("txn.commit_call_p99_ms", "ms", self("tx.commit", 0.99)*1e3)
	m.set("txn.lock_wait_ms", "ms", float64(t1.LockWaitTime-t0.LockWaitTime)/1e6)
	m.set("txn.aborts_per_commit", "count", per(t1.Aborted-t0.Aborted))
	m.set("txn.publish_stalls_per_commit", "count", per(t1.PublishStalls-t0.PublishStalls))
	m.set("txn.csn_per_commit", "count", per(int64(c1.last-c0.last)))

	m.set("wal.bytes_per_commit", "B", per(c1.dev.bytes-c0.dev.bytes))
	m.set("wal.appends_per_commit", "count", per(c1.dev.appends-c0.dev.appends))
	m.set("wal.syncs_per_commit", "count", per(c1.dev.syncs-c0.dev.syncs))
	m.set("wal.sync_p99_ms", "ms", dur("wal.sync", 0.99)*1e3)
	m.set("wal.sync_busy_frac", "frac", ratio((c1.dev.syncTime-c0.dev.syncTime).Seconds(), secs))

	m.set("capture.lag_p99_ms", "ms", r.captureLag.ms(0.99))

	queries := (c1.fwd - c0.fwd) + (c1.comp - c0.comp)
	m.set("core.hwm_lag_p50_ms", "ms", r.hwmLag.ms(0.5))
	m.set("core.hwm_lag_p99_ms", "ms", r.hwmLag.ms(0.99))
	m.set("core.fwd_queries_per_commit", "count", per(c1.fwd-c0.fwd))
	m.set("core.comp_queries_per_commit", "count", per(c1.comp-c0.comp))
	m.set("core.skipped_windows_per_commit", "count", per(c1.skipped-c0.skipped))
	m.set("core.delta_rows_per_query", "count", ratio(float64(c1.deltas-c0.deltas), float64(queries)))
	m.set("core.apply_lag_p50_ms", "ms", r.applyLag.ms(0.5))
	m.set("core.backlog_rows_max", "count", float64(r.backlogRowsMax))
	m.set("core.agg_rows_folded_per_commit", "count", per(c1.folded-c0.folded))

	hits, misses := e1.CacheHits-e0.CacheHits, e1.CacheMisses-e0.CacheMisses
	m.set("engine.rows_scanned_per_commit", "count", per(e1.RowsScanned-e0.RowsScanned))
	m.set("engine.rows_joined_per_commit", "count", per(e1.RowsJoined-e0.RowsJoined))
	m.set("engine.index_probes_per_commit", "count", per(e1.IndexProbes-e0.IndexProbes))
	m.set("engine.snapshots_per_commit", "count", per(e1.SnapshotsOpened-e0.SnapshotsOpened))
	m.set("engine.cache_hit_frac", "frac", ratio(float64(hits), float64(hits+misses)))
	m.set("engine.cache_resident_mb", "MB", float64(e1.CacheResidentBytes)/(1<<20))
	m.set("engine.slice_jobs_per_commit", "count", per(sliceJobs(c1)-sliceJobs(c0)))
	m.set("engine.partition_skew", "ratio", skew(e0.PartDeltaRows, e1.PartDeltaRows))
	m.set("engine.key_migrations", "count", float64(e1.KeyMigrations-e0.KeyMigrations))
	m.set("engine.versions_retained", "count", float64(e1.VersionsRetained))

	m.set("tier.folded_rows_per_commit", "count", per(e1.FoldedRows-e0.FoldedRows))
	m.set("tier.image_resident_mb", "MB", float64(e1.ImageResidentBytes)/(1<<20))
	m.set("tier.maint_p50_ms", "ms", r.maint.ms(0.5))
	m.set("tier.maint_max_ms", "ms", maxOf(r.maint.xs)*1e3)

	m.set("exec.rows_per_batch", "count", ratio(float64(e1.BatchRows-e0.BatchRows), float64(e1.BatchesProduced-e0.BatchesProduced)))
	m.set("exec.batches_per_commit", "count", per(e1.BatchesProduced-e0.BatchesProduced))
	m.set("exec.filter_keep_frac", "frac", ratio(float64(e1.FilterRowsKept-e0.FilterRowsKept), float64(e1.FilterRowsIn-e0.FilterRowsIn)))

	s0, s1 := e0.Sched, e1.Sched
	m.set("sched.wakeups_per_commit", "count", per(s1.Wakeups-s0.Wakeups))
	m.set("sched.steps_per_commit", "count", per(s1.Steps-s0.Steps))
	m.set("sched.notifies_per_commit", "count", per(s1.Notifies-s0.Notifies))
	m.set("sched.parks", "count", float64(s1.Parks-s0.Parks))
	m.set("sched.backoffs", "count", float64(s1.Backoffs-s0.Backoffs))

	m.set("repl.ship_lag_p50_ms", "ms", r.shipLag.ms(0.5))
	m.set("repl.ship_lag_p99_ms", "ms", r.shipLag.ms(0.99))
	m.set("repl.bytes_shipped_per_commit", "B", per(c1.shipped-c0.shipped))
	m.set("repl.reconnects", "count", float64(c1.reconn-c0.reconn))
	m.set("repl.read_bytes_per_read", "B", ratio(float64(c1.readBytes-c0.readBytes), float64(r.reads)))
	m.set("http.client_self_p50_ms", "ms", self("http.commit", 0.5)*1e3)
	m.set("http.server_self_p50_ms", "ms", self("srv/v1/commit", 0.5)*1e3)

	m.set("loadgen.late_p99_ms", "ms", r.late.ms(0.99))
	m.set("loadgen.achieved_per_s", "1/s", ratio(commits, secs))
	m.set("go.alloc_bytes_per_commit", "B", ratio(float64(c1.alloc-c0.alloc), commits))
	m.set("go.gc_cpu_frac", "frac", ratio(c1.gcCPU-c0.gcCPU, c1.allCPU-c0.allCPU))

	nspans := 0
	for name, st := range spans {
		if name != "background" {
			nspans += st.count
		}
	}
	m.set("trace.spans_per_commit", "count", ratio(float64(nspans), commits))
	m.set("trace.overhead_commit_p50_frac", "frac", ratio(r.commit.ms(0.5), base.commit.ms(0.5))-1)
	m.set("trace.overhead_fresh_p50_frac", "frac", ratio(r.fresh.ms(0.5), base.fresh.ms(0.5))-1)
}

// engineTotals sums the engine-layer counters of every node: propagation,
// the executor and the scheduler run on the follower too in replica-http.
func engineTotals(c counters) engine.Stats {
	t, f := c.eng, c.engFollower
	t.RowsScanned += f.RowsScanned
	t.RowsJoined += f.RowsJoined
	t.IndexProbes += f.IndexProbes
	t.SnapshotsOpened += f.SnapshotsOpened
	t.CacheHits += f.CacheHits
	t.CacheMisses += f.CacheMisses
	t.CacheResidentBytes += f.CacheResidentBytes
	t.KeyMigrations += f.KeyMigrations
	t.VersionsRetained += f.VersionsRetained
	t.FoldedRows += f.FoldedRows
	t.ImageResidentBytes += f.ImageResidentBytes
	t.BatchRows += f.BatchRows
	t.BatchesProduced += f.BatchesProduced
	t.FilterRowsIn += f.FilterRowsIn
	t.FilterRowsKept += f.FilterRowsKept
	t.Sched.Wakeups += f.Sched.Wakeups
	t.Sched.Steps += f.Sched.Steps
	t.Sched.Notifies += f.Sched.Notifies
	t.Sched.Parks += f.Sched.Parks
	t.Sched.Backoffs += f.Sched.Backoffs
	return t
}

func sliceJobs(c counters) int64 { return sum(c.eng.PartSliceJobs) + sum(c.engFollower.PartSliceJobs) }

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// skew is max/mean of the per-partition growth between two snapshots (0
// when nothing was routed, 1 for an even spread).
func skew(before, after []int64) float64 {
	if len(after) == 0 {
		return 0
	}
	var total, top int64
	for i, a := range after {
		d := a
		if i < len(before) {
			d -= before[i]
		}
		total += d
		top = max(top, d)
	}
	return ratio(float64(top), float64(total)/float64(len(after)))
}

// envLine describes where a run happened: toolchain, CPUs, and a digest of
// the source files in the working directory (the checkout the benchmark
// builds from is not a git repository, so no commit id is at hand).
func envLine() string {
	h := sha256.New()
	files := 0
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".mod" && ext != ".json" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		files++
		return nil
	})
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d source=sha256:%x (%d files)",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), h.Sum(nil)[:8], files)
}
