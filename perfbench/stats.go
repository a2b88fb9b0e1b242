package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond returns how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// median returns the middle value of xs, or the mean of the two middle
// values when their number is even (0 for no samples).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio returns a/b, or 0 when b is 0 (a counter with no base, such as
// cache hits on a workload that never probes the cache).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricSet collects named values in the order they are set.
type metricSet struct {
	names  []string
	values map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetrics() *metricSet { return &metricSet{values: make(map[string]metricValue)} }

func (m *metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("metric %s is %v", name, v))
	}
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metricValue{Value: v, Unit: unit}
}

// latencies is one latency series in seconds, each sample stamped with
// when its operation was due or began.
type latencies struct {
	name string
	xs   []float64
	at   []time.Time
}

func (l *latencies) add(at time.Time, seconds float64) {
	l.xs = append(l.xs, seconds)
	l.at = append(l.at, at)
}

// ms returns the q-quantile in milliseconds.
func (l *latencies) ms(q float64) float64 { return quantile(l.xs, q) * 1e3 }

// windowedMS returns the lower decile (nearest rank) over windows of each
// window's q-quantile, in milliseconds: with 12 or 13 windows, the second
// fastest. Outside interference, such as CPU steal on a shared host, only
// adds latency, and it came in bursts that slowed part or all of a run; a
// change to the program moves every window, the fastest ones too.
func windowedMS(ws []latencies, q float64) float64 {
	per := make([]float64, len(ws))
	for i := range ws {
		per[i] = ws[i].ms(q)
	}
	return quantile(per, 0.1)
}
