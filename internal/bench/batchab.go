package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/relalg"
	"repro/internal/workload"
)

// BatchABEntry records the batch-layer check for the machine-readable
// benchmark output: the columnar layout with per-step arenas drains a
// star-schema update history under scan propagation.
type BatchABEntry struct {
	Benchmark    string  `json:"benchmark"`
	FactRows     int     `json:"fact_rows"`
	Updates      int     `json:"updates"`
	BatchSize    int     `json:"batch_size"`
	Reps         int     `json:"reps"`
	ArenaNs      int64   `json:"arena_ns"`
	ArenaStepNs  int64   `json:"arena_step_ns"`
	Batches      int64   `json:"batches"`
	RowsPerBatch float64 `json:"rows_per_batch"`
	Match        bool    `json:"match"`
}

// batchResult is one repetition: the measured drain plus the
// deterministic batch counters.
type batchResult struct {
	dur     time.Duration
	steps   int64
	batches int64
	rows    int64
	match   bool
}

// runBatch builds a fresh environment, drains the seeded star-schema
// history with scan propagation, verifies the view against full
// recomputation, and returns the measured drain.
func runBatch(updates, dimRows, factRows int) (batchResult, error) {
	var res batchResult
	w := workload.StarSchema(2, factRows, dimRows, 20)
	env, err := NewEnvCfg(w, 63, false, engine.Config{})
	if err != nil {
		return res, err
	}
	defer env.Close()
	mv, err := core.Materialize(env.DB, env.W.View)
	if err != nil {
		return res, err
	}
	d := workload.NewDriver(env.DB, env.W, 64)
	rp := core.NewRollingPropagator(env.Exec, mv.MatTime(), core.PerRelationIntervals(4, 64, 64))
	const phases = 4
	var last relalg.CSN
	for p := 0; p < phases; p++ {
		n := updates / phases
		if p == phases-1 {
			n = updates - n*(phases-1)
		}
		if last, err = d.Run(n); err != nil {
			return res, err
		}
		if err := env.Cap.WaitProgress(last); err != nil {
			return res, err
		}
		start := time.Now()
		if err := DrainRolling(rp, last); err != nil {
			return res, err
		}
		res.dur += time.Since(start)
	}
	res.steps = rp.Steps()
	st := env.DB.Stats()
	res.batches = st.BatchesProduced
	res.rows = st.BatchRows

	applier := core.NewApplier(mv, env.Dest, func() relalg.CSN { return last })
	if err := applier.RollTo(last); err != nil {
		return res, err
	}
	full, _, err := core.FullRefresh(env.DB, env.W.View)
	if err != nil {
		return res, err
	}
	res.match = relalg.Equivalent(mv.AsRelation(), full)
	return res, nil
}

// BatchAB drains a star-schema update history through rolling
// propagation under scan propagation, where every step streams base heaps
// through the columnar filter and hash-join kernels with per-step arena
// recycling, and verifies the view against a full recomputation. It
// repeats a few times and reports the fastest repetition (the per-seed
// work is deterministic, so the minimum rejects scheduler and GC noise).
func BatchAB(s Scale) (*metrics.Table, []BatchABEntry, error) {
	updates := s.pick(200, 1600)
	dimRows := 150
	factRows := s.pick(2000, 8000)
	const reps = 2
	t := metrics.NewTable(
		fmt.Sprintf("BATCH — columnar+arena scan propagation (star: fact %d rows, 2 dims x %d, %d updates, best of %d)",
			factRows, dimRows, updates, reps),
		"arm", "drain", "ns/step", "steps", "batches", "rows/batch", "match")

	var best batchResult
	match := true
	for rep := 0; rep < reps; rep++ {
		res, err := runBatch(updates, dimRows, factRows)
		if err != nil {
			return t, nil, err
		}
		match = match && res.match
		if rep == 0 || res.dur < best.dur {
			best = res
		}
	}
	var stepNs int64
	if best.steps > 0 {
		stepNs = best.dur.Nanoseconds() / best.steps
	}
	var rpb float64
	if best.batches > 0 {
		rpb = float64(best.rows) / float64(best.batches)
	}
	t.AddRow("columnar + arena", best.dur, stepNs, best.steps, best.batches, fmt.Sprintf("%.1f", rpb), pass(match))
	entries := []BatchABEntry{{
		Benchmark:    "rolling propagation, star schema, scan propagation",
		FactRows:     factRows,
		Updates:      updates,
		BatchSize:    exec.DefaultBatchSize,
		Reps:         reps,
		ArenaNs:      best.dur.Nanoseconds(),
		ArenaStepNs:  stepNs,
		Batches:      best.batches,
		RowsPerBatch: rpb,
		Match:        match,
	}}
	if !match {
		return t, entries, fmt.Errorf("batch: columnar+arena propagation diverged from full recomputation")
	}
	return t, entries, nil
}
