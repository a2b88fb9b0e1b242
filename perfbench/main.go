// Command perfbench is the repository's benchmark. It runs one workload
// against the rollingjoin facade (and internal/repl for the replica
// workload), checks every maintained relation against recomputation, and
// prints one JSON line as the last line of its output: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run.
//
//	bash perfbench/run.sh --workload star-sync --seed 1 --seconds 20 --trace 0
//
// Workload sizes, offered rates and flush policies are set in config.go;
// WORKLOADS.md records why each workload exists and what it runs.
// A run is: set-up (repeated, median reported), a warm-up, a steady phase
// of open-loop load, a few ingest cycles (closed-loop writes with
// propagation stopped, then catch-up), and the correctness gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	rollingjoin "repro"
)

func main() {
	workload := flag.String("workload", "", "workload name (see WORKLOADS.md)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	res, err := run(runOpts{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scale:    1,
		dir:      filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		log:      os.Stdout,
	})
	if res != nil {
		out, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // fraction of the configured sizes (tests use < 1)
	dir      string  // scratch directory for WAL files and checkpoints
	log      io.Writer
	// onTrace, when set, receives a traced run's span summary and its
	// traced steady phase (tests check the two cover the same commits).
	onTrace func(map[string]*spanStats, *loadResult)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errVerify marks a failed correctness gate: the run prints correct=false.
var errVerify = errors.New("verification failed")

// build sets a workload up, drawing its base load from g.
func build(name string, w workloadConfig, tr *tracer, dir string, g *gen) (system, error) {
	switch name {
	case "star-sync":
		return setupStar(w, tr, dir, g)
	case "skew-cascade":
		return setupCascade(w, tr, dir, g)
	case "replica-http":
		return setupReplica(w, tr, g)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run executes one benchmark run. It returns a nil result for errors that
// prevent measuring at all, and a result with Correct false, alongside the
// error, when the correctness gate fails.
func run(o runOpts) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	w = w.scaled(o.scale)
	defer os.RemoveAll(o.dir)
	tr := newTracer()

	// Set-up runs several times on the same seed; the median is reported
	// and the last instance is measured, its generator going on from the
	// base load to the operation stream.
	var setups []float64
	var sys system
	var g *gen
	var err error
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("close after set-up: %w", err)
			}
		}
		g = newGen(w, o.seed)
		start := time.Now()
		sys, err = build(o.workload, w, tr, filepath.Join(o.dir, fmt.Sprint("setup", i)), g)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			sys.close()
		}
	}()

	rr := rand.New(rand.NewSource(o.seed ^ 0x7eadc5))
	// The warm-up is one cycle and the steady phase k whole cycles, one per
	// window, so the steady phase and each window start at a maintenance
	// call.
	k := max(2, int(o.seconds*steadyFrac/w.cycleDur().Seconds()))
	spec := loadSpec{
		dur:        w.cycleDur(),
		perS:       w.commitsPerS,
		maintEvery: w.maintainEvery(),
		drain:      10 * time.Second,
		replicated: o.workload == "replica-http",
	}
	var attempted, failed int
	var errs []string
	tally := func(r *loadResult) {
		attempted += r.attempted
		failed += r.failed
		errs = append(errs, r.errs...)
	}

	if w.maintain {
		// A checkpoint chain's first link is a FULL snapshot; steady-state
		// links are DELTA links, which the steady phase measures.
		if err := sys.maintain(); err != nil {
			return nil, fmt.Errorf("first maintenance call: %w", err)
		}
	}
	tally(runLoad(sys, g, rr, tr, spec))

	// The steady phase is k windows of one cycle each. A traced run gives
	// its first window to an untraced baseline, the reference for the
	// tracing overhead, and traces the rest.
	var (
		wins     []*loadResult
		base     *loadResult
		c0, c1   counters
		spans    map[string]*spanStats
		csns     rollingjoin.CSN
		logBytes int64
	)
	for i := 0; i < k; i++ {
		if o.trace && i == 1 {
			c0 = sys.counters()
			tr.start()
		}
		before := sys.counters()
		r := runLoad(sys, g, rr, tr, spec)
		after := sys.counters()
		tally(r)
		if o.trace && i == 0 {
			base = r
			continue
		}
		wins = append(wins, r)
		csns += after.last - before.last
		logBytes += after.dev.bytes - before.dev.bytes
	}
	steadyRes := mergeResults(wins)
	if o.trace {
		c1 = sys.counters()
		tr.stop()
		spans = tr.summarize()
		if o.onTrace != nil {
			o.onTrace(spans, steadyRes)
		}
	}
	if err := backlogGrowth(steadyRes, csns, steadyRes.dur); err != nil {
		return failedResult(attempted, failed), fmt.Errorf("%w: %v", errVerify, err)
	}
	// The ingest cycles come after the steady phase: each adds thousands
	// of commits to the in-memory WAL, which the live heap holds.
	n := w.cycle * max(1, int(math.Round(ingestCommits*min(o.scale, 1)/float64(w.cycle))))
	ing := &ingestResult{}
	ing.lastCSN = steadyRes.lastCSN
	for c := 0; c < ingestCycles; c++ {
		if err := ing.cycle(sys, g, n, w.maintainEvery()); err != nil {
			tally(&ing.loadResult)
			return failedResult(attempted, failed), fmt.Errorf("%w: ingest: %v", errVerify, err)
		}
	}
	tally(&ing.loadResult)
	if err := sys.verify(ing.lastCSN); err != nil {
		return failedResult(attempted, failed), fmt.Errorf("%w: %v", errVerify, err)
	}
	closed = true
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if len(errs) > 0 {
		fmt.Fprintf(o.log, "errors (first %d): %v\n", len(errs), errs)
	}

	commit, fresh, read := make([]latencies, len(wins)), make([]latencies, len(wins)), make([]latencies, len(wins))
	for i, r := range wins {
		commit[i], fresh[i], read[i] = r.commit, r.fresh, r.read
	}
	m := newMetrics()
	if o.trace {
		layerMetrics(m, spans, c0, c1, steadyRes, base)
	} else {
		m.set("setup_s", "s", median(setups))
		m.set("commit_p50_ms", "ms", windowedMS(commit, 0.5))
		m.set("commit_p75_ms", "ms", windowedMS(commit, 0.75))
		m.set("fresh_p50_ms", "ms", windowedMS(fresh, 0.5))
		m.set("fresh_p75_ms", "ms", windowedMS(fresh, 0.75))
		m.set("read_p50_ms", "ms", windowedMS(read, 0.5))
		m.set("read_p75_ms", "ms", windowedMS(read, 0.75))
		m.set("ingest_commits_per_s", "1/s", median(ing.ingestRates))
		m.set("catchup_commits_per_s", "1/s", median(ing.catchupRates))
		m.set("log_bytes_per_commit", "B", ratio(float64(logBytes), float64(steadyRes.commits)))
		// The live heap follows a sawtooth between maintenance calls; its
		// lower quartile is the state a cycle keeps (WORKLOADS.md).
		m.set("live_heap_mb", "MB", quantile(steadyRes.liveHeap, 0.25)/(1<<20))
		m.set("ok_frac", "frac", 1-ratio(float64(failed), float64(attempted)))
	}
	spec.dur = steadyRes.dur
	health(o.log, o.workload, spec, steadyRes, setups, ing, map[string][]latencies{"commit": commit, "fresh": fresh, "read": read})
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m.values}, nil
}

func failedResult(attempted, failed int) *result {
	return &result{Correct: false, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metricValue{}}
}

// backlogGrowth fails a steady phase whose view backlog (LastCSN - MatTime)
// grew: the mean over its last third may exceed the mean over its first
// third by at most one second's worth of CSNs.
func backlogGrowth(r *loadResult, csns rollingjoin.CSN, dur time.Duration) error {
	n := len(r.backlog)
	if n < 3 {
		return nil
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	first, last := mean(r.backlog[:n/3]), mean(r.backlog[n-n/3:])
	allowed := float64(csns) / dur.Seconds()
	if last-first > allowed {
		return fmt.Errorf("view backlog grew across the steady phase: mean %.0f CSNs in its first third, %.0f in its last (allowed growth %.0f)", first, last, allowed)
	}
	return nil
}

// ingestResult is the closed-loop ingest and catch-up phase.
type ingestResult struct {
	loadResult
	ingestRates, catchupRates []float64 // commits per second, per cycle
}

// cycle makes n closed-loop commits with propagation stopped, then
// restarts propagation and times the catch-up of every level to the last
// of them.
func (res *ingestResult) cycle(sys system, g *gen, n, maintEvery int) error {
	if err := sys.catchUp(res.lastCSN); err != nil {
		return err
	}
	if err := sys.pause(); err != nil {
		return err
	}
	done := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		csn, err := res.step(sys, g, maintEvery)
		if err != nil {
			res.fail(err)
			continue
		}
		res.lastCSN = csn
		done++
	}
	res.ingestRates = append(res.ingestRates, ratio(float64(done), time.Since(start).Seconds()))
	start = time.Now()
	sys.resume()
	if err := sys.catchUp(res.lastCSN); err != nil {
		return err
	}
	res.catchupRates = append(res.catchupRates, ratio(float64(done), time.Since(start).Seconds()))
	return nil
}

// health prints the load generator's report: offered and achieved rates,
// how late the writer ran, and each latency series' shape over the steady
// phase (p99 and above included, which the result leaves out) with its
// sample counts and percentiles per window. It flags a p99 with fewer than
// ten samples beyond it.
func health(w io.Writer, name string, sp loadSpec, r *loadResult, setups []float64, ing *ingestResult, windows map[string][]latencies) {
	secs := sp.dur.Seconds()
	fmt.Fprintf(w, "loadgen %s: offered %.1f commits/s, achieved %.1f/s; reads offered %.1f/s, achieved %.1f/s; late p50 %.3f ms p99 %.3f ms\n",
		name, sp.perS, float64(r.commits)/secs, sp.perS, float64(r.reads)/secs, r.late.ms(0.5), r.late.ms(0.99))
	for _, l := range []*latencies{&r.commit, &r.fresh, &r.read} {
		var counts []int
		var p50s, p75s, p90s, p99s []string
		for _, win := range windows[l.name] {
			counts = append(counts, len(win.xs))
			p50s = append(p50s, fmt.Sprintf("%.3f", win.ms(0.5)))
			p75s = append(p75s, fmt.Sprintf("%.3f", win.ms(0.75)))
			p90s = append(p90s, fmt.Sprintf("%.3f", win.ms(0.9)))
			p99s = append(p99s, fmt.Sprintf("%.3f", win.ms(0.99)))
		}
		if b := beyond(len(l.xs), 0.99); b < 10 {
			fmt.Fprintf(w, "warning: the %s p99 has %d samples beyond it (fewer than 10)\n", l.name, b)
		}
		fmt.Fprintf(w, "%s ms: p50 %.3f p75 %.3f p90 %.3f p99 %.3f p99.9 %.3f max %.3f; samples per window %v; window p50s %v p75s %v p90s %v p99s %v\n",
			l.name, l.ms(0.5), l.ms(0.75), l.ms(0.9), l.ms(0.99), l.ms(0.999), l.ms(1), counts, p50s, p75s, p90s, p99s)
	}
	fmt.Fprintf(w, "set-up s: %.3f; ingest cycles /s: %.0f; catch-up cycles /s: %.0f; maintenance calls %d\n",
		setups, ing.ingestRates, ing.catchupRates, len(r.maint.xs))
	fmt.Fprintf(w, "env: %s\n", envLine())
}
