package main

import (
	"fmt"
	"math"
	"time"
)

// Settings every workload shares. WORKLOADS.md records why each workload
// exists and what it runs.
const (
	dimRows = 1000 // keys per dimension table
	groups  = 20   // distinct dimension groups (dim.g)
	// dimUpdateEvery makes every n-th operation of the write stream a
	// dimension update; the others alternate fact insert and fact delete.
	dimUpdateEvery = 20

	setupRepeats  = 15   // set-up runs per benchmark run; the median is reported
	steadyFrac    = 0.75 // share of --seconds given to the steady phase
	ingestCycles  = 9    // closed-loop ingest and catch-up cycles per run
	ingestCommits = 2000 // closed-loop commits per ingest cycle
)

// workloadConfig holds what differs between workloads. A setup rejects the
// settings it does not use, so no field is silently ignored.
type workloadConfig struct {
	factRows int // base fact rows; the write stream keeps the count
	dims     int // dimension tables (and fact foreign keys)
	// hotGroups: the view readers use keeps the rows of groups
	// g < hotGroups (dim1.g in a hot join view, the group in the cascade
	// top).
	hotGroups  int
	keySkew    float64 // Zipf exponent of fact keys (0: uniform)
	partitions int
	// Flush policy.
	fileWAL, syncOnCommit bool
	foldDeltas            bool
	// cycle is the user commits of one steady window. With maintain set,
	// the workload's periodic maintenance runs at the start of every cycle:
	// an incremental checkpoint link (skew-cascade) or a fold pass on each
	// node (replica-http). Windows then start at maintenance calls, so
	// each holds the same mix of states between two calls.
	cycle    int
	maintain bool
	// Offered load: commits per second, and as many reads.
	commitsPerS float64
}

var workloads = map[string]workloadConfig{
	"star-sync": {
		factRows: 2500, dims: 3, hotGroups: 2, partitions: 1,
		fileWAL: true, syncOnCommit: true, cycle: 300,
		commitsPerS: 100,
	},
	"skew-cascade": {
		factRows: 5000, dims: 1, hotGroups: 10, keySkew: 1.2, partitions: 2,
		foldDeltas: true, cycle: 250, maintain: true,
		commitsPerS: 75,
	},
	"replica-http": {
		factRows: 3000, dims: 1, hotGroups: 2, partitions: 1, cycle: 300, maintain: true,
		commitsPerS: 100,
	},
}

// unused returns an error naming the first of the given settings that is
// set: a setup calls it with the settings it does not use.
func unused(workload string, settings map[string]bool) error {
	for name, set := range settings {
		if set {
			return fmt.Errorf("%s: setting %s is not supported", workload, name)
		}
	}
	return nil
}

// scaled shrinks a workload's sizes and counts by f (tests run at a small
// fraction of the benchmark's scale); rates and policies stay.
func (w workloadConfig) scaled(f float64) workloadConfig {
	if f >= 1 {
		return w
	}
	shrink := func(n int) int { return int(math.Max(1, math.Round(float64(n)*f))) }
	w.factRows = shrink(w.factRows)
	w.cycle = shrink(w.cycle)
	return w
}

// maintainEvery is the user commits between periodic maintenance calls
// (0: none).
func (w workloadConfig) maintainEvery() int {
	if w.maintain {
		return w.cycle
	}
	return 0
}

// cycleDur is how long the writer takes for one cycle at the offered rate.
func (w workloadConfig) cycleDur() time.Duration {
	return time.Duration(float64(w.cycle) / w.commitsPerS * float64(time.Second))
}
