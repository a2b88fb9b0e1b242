package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	rollingjoin "repro"
)

// loadSpec is one open-loop load phase.
type loadSpec struct {
	dur        time.Duration
	perS       float64       // commits per second, and as many reads
	maintEvery int           // maintenance before every n-th commit (0: never)
	drain      time.Duration // how long the observer waits for the last commits
	replicated bool          // positions.applied is meaningful
}

// loadResult holds one phase's samples, all latencies in seconds.
type loadResult struct {
	commit, fresh, read, late latencies
	maint                     latencies // the periodic maintenance calls
	// Stage latencies of each commit on its way to readers: ack to
	// capture, capture to HWM, HWM to MatTime, and ack to follower replay.
	captureLag, hwmLag, applyLag, shipLag latencies
	attempted, failed                     int
	commits, reads, unseen                int
	lastCSN                               rollingjoin.CSN
	backlog                               []float64 // LastCSN - MatTime, sampled each millisecond
	backlogRowsMax                        int64
	liveHeap                              []float64     // heap marked live by the last GC, bytes, sampled every 100ms
	t0                                    time.Time     // start of the phase
	dur                                   time.Duration // scheduled length of the phase
	errs                                  []string
}

// mergeResults joins the results of consecutive load phases into one.
func mergeResults(rs []*loadResult) *loadResult {
	m := newLoadResult()
	for i, r := range rs {
		if i == 0 {
			m.t0 = r.t0
		}
		for _, p := range []struct{ to, from *latencies }{
			{&m.commit, &r.commit}, {&m.fresh, &r.fresh}, {&m.read, &r.read}, {&m.late, &r.late},
			{&m.maint, &r.maint}, {&m.captureLag, &r.captureLag}, {&m.hwmLag, &r.hwmLag},
			{&m.applyLag, &r.applyLag}, {&m.shipLag, &r.shipLag},
		} {
			p.to.xs = append(p.to.xs, p.from.xs...)
			p.to.at = append(p.to.at, p.from.at...)
		}
		m.attempted += r.attempted
		m.failed += r.failed
		m.commits += r.commits
		m.reads += r.reads
		m.unseen += r.unseen
		m.lastCSN = r.lastCSN
		m.backlog = append(m.backlog, r.backlog...)
		m.backlogRowsMax = max(m.backlogRowsMax, r.backlogRowsMax)
		m.liveHeap = append(m.liveHeap, r.liveHeap...)
		m.dur += r.dur
		m.errs = append(m.errs, r.errs...)
	}
	return m
}

func newLoadResult() *loadResult {
	return &loadResult{commit: latencies{name: "commit"}, fresh: latencies{name: "fresh"}, read: latencies{name: "read"}}
}

// step runs the next operation of g's stream, first calling the
// system's periodic maintenance when every user commits of the stream
// (counted across phases) have passed since the last call.
func (r *loadResult) step(sys system, g *gen, every int) (rollingjoin.CSN, error) {
	if every > 0 && g.ops > 0 && g.ops%every == 0 {
		start := time.Now()
		r.attempted++
		if err := sys.maintain(); err != nil {
			r.fail(fmt.Errorf("maintenance: %w", err))
		} else {
			r.maint.add(start, time.Since(start).Seconds())
		}
	}
	r.attempted++
	return sys.commit(g.next())
}

func (r *loadResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// commitRec is one acknowledged commit the observer follows until the
// reader-facing view shows it.
type commitRec struct {
	csn      rollingjoin.CSN
	due, ack time.Time
}

// runLoad drives sys with two goroutines. The writer commits g's operation
// stream on a fixed schedule and times each commit from when it was due,
// so a stall also delays the commits queued behind it. The observer polls
// the clocks of the reader-facing views, notes when each acknowledged
// commit becomes visible, and issues reads on their own fixed schedule.
func runLoad(sys system, g *gen, rr *rand.Rand, tr *tracer, sp loadSpec) *loadResult {
	var (
		feed   = &ackFeed{wake: make(chan struct{}, 1)}
		wg     sync.WaitGroup
		wres   = newLoadResult()
		ores   = newLoadResult()
		traced = tr.on.Load()
	)
	t0 := time.Now()
	wres.t0, wres.dur = t0, sp.dur
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer feed.stop()
		interval := time.Duration(float64(time.Second) / sp.perS)
		n := int(math.Round(sp.dur.Seconds() * sp.perS))
		for i := 0; i < n; i++ {
			due := t0.Add(time.Duration(i) * interval)
			waitUntil(due)
			start := time.Now()
			wres.late.add(due, start.Sub(due).Seconds())
			csn, err := wres.step(sys, g, sp.maintEvery)
			ack := time.Now()
			if err != nil {
				wres.fail(fmt.Errorf("commit: %w", err))
				continue
			}
			wres.commits++
			wres.lastCSN = csn
			wres.commit.add(due, ack.Sub(due).Seconds())
			feed.push(commitRec{csn: csn, due: due, ack: ack})
		}
	}()
	go func() {
		defer wg.Done()
		observe(sys, rr, tr, traced, sp, t0, feed, ores)
	}()
	wg.Wait()
	wres.fresh, wres.read = ores.fresh, ores.read
	wres.captureLag, wres.hwmLag, wres.applyLag, wres.shipLag = ores.captureLag, ores.hwmLag, ores.applyLag, ores.shipLag
	wres.attempted += ores.attempted
	wres.failed += ores.failed
	wres.errs = append(wres.errs, ores.errs...)
	wres.reads, wres.unseen = ores.reads, ores.unseen
	wres.backlog, wres.backlogRowsMax, wres.liveHeap = ores.backlog, ores.backlogRowsMax, ores.liveHeap
	return wres
}

// waitUntil returns at t. A Go sleep shorter than a millisecond lasts
// about a millisecond when the process is otherwise idle, and a loop of
// runtime.Gosched keeps its processor from ever polling the network, which
// delays HTTP replies by up to the runtime's 10 ms fallback poll. So it
// sleeps in Go to within two milliseconds of t, then naps (each nap about
// 60 µs late) to within spinBelow of t, and spins the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > spinBelow; d = time.Until(t) {
		nap(d - spinBelow)
	}
	for time.Now().Before(t) {
	}
}

const spinBelow = 100 * time.Microsecond

// nap blocks the calling thread in nanosleep(2) for about d.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// ackFeed hands acknowledged commits from the writer to the observer.
type ackFeed struct {
	mu    sync.Mutex
	queue []commitRec
	done  atomic.Bool   // the writer has stopped
	wake  chan struct{} // signalled after each ack and when the writer stops
}

func (f *ackFeed) push(c commitRec) {
	f.mu.Lock()
	f.queue = append(f.queue, c)
	f.mu.Unlock()
	f.signal()
}

func (f *ackFeed) stop() {
	f.done.Store(true)
	f.signal()
}

func (f *ackFeed) signal() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

func (f *ackFeed) acked() []commitRec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queue
}

// stage indexes the clocks a commit passes on its way to readers.
const (
	stApplied = iota // follower replayed it (replica-http only)
	stCapture        // capture progress covers it
	stHWM            // reader-facing views' high-water mark covers it
	stMat            // reader-facing views materialize it
	nStages
)

// observe runs the observer until every acknowledged commit is visible
// after the writer stops. While a commit is in flight it watches the
// clocks, napping 80–160µs between readings, so a commit is seen visible
// within about 0.15 ms; otherwise it waits for the next ack or the next
// read.
func observe(sys system, rr *rand.Rand, tr *tracer, traced bool, sp loadSpec, t0 time.Time, feed *ackFeed, res *loadResult) {
	var (
		cursor     [nStages]int
		seen       [][nStages]time.Time
		readGap    = time.Duration(float64(time.Second) / sp.perS)
		nextRead   = t0.Add(readGap / 2) // reads fall between commits
		deadline   time.Time
		nextSample time.Time
		nextHeap   time.Time
	)
	for {
		p := sys.positions()
		if !sp.replicated {
			p.applied = p.capture
		}
		now := time.Now()
		q := feed.acked()
		for len(seen) < len(q) {
			seen = append(seen, [nStages]time.Time{})
		}
		clocks := [nStages]rollingjoin.CSN{p.applied, p.capture, p.hwm, p.mat}
		for st := 0; st < nStages; st++ {
			for cursor[st] < len(q) && q[cursor[st]].csn <= clocks[st] {
				i := cursor[st]
				seen[i][st] = now
				// A downstream clock never passes an upstream one, so a
				// stage not yet noted for this commit passed it now too.
				for up := st - 1; up >= 0; up-- {
					if seen[i][up].IsZero() {
						seen[i][up] = now
					}
				}
				if st == stMat {
					s := seen[i]
					res.fresh.add(q[i].ack, now.Sub(freshFrom(q[i], sp.replicated)).Seconds())
					res.captureLag.add(q[i].ack, s[stCapture].Sub(q[i].ack).Seconds())
					res.hwmLag.add(q[i].ack, s[stHWM].Sub(s[stCapture]).Seconds())
					res.applyLag.add(q[i].ack, s[stMat].Sub(s[stHWM]).Seconds())
					if sp.replicated {
						res.shipLag.add(q[i].ack, s[stApplied].Sub(q[i].ack).Seconds())
					}
					if traced {
						recordFreshness(tr, q[i], seen[i], sp.replicated)
					}
				}
				cursor[st]++
			}
		}
		if !now.Before(nextSample) {
			res.backlog = append(res.backlog, float64(p.last-p.mat))
			nextSample = now.Add(time.Millisecond)
		}
		if !now.Before(nextHeap) {
			res.liveHeap = append(res.liveHeap, liveHeapBytes())
			nextHeap = now.Add(100 * time.Millisecond)
		}
		writerDone := feed.done.Load()
		if writerDone {
			if cursor[stMat] == len(q) {
				return
			}
			if deadline.IsZero() {
				deadline = now.Add(sp.drain)
			} else if now.After(deadline) {
				res.unseen = len(q) - cursor[stMat]
				for i := 0; i < res.unseen; i++ {
					res.attempted++
					res.fail(fmt.Errorf("commit %d not visible %v after the writer stopped", q[cursor[stMat]+i].csn, sp.drain))
				}
				return
			}
		}
		if !writerDone && !now.Before(nextRead) {
			nextRead = nextRead.Add(readGap)
			start := time.Now()
			res.attempted++
			_, err := sys.read(rr)
			if err != nil {
				res.fail(fmt.Errorf("read: %w", err))
			} else {
				res.reads++
				res.read.add(start, time.Since(start).Seconds())
			}
			if traced {
				res.backlogRowsMax = max(res.backlogRowsMax, sys.backlogRows())
			}
			continue
		}
		if cursor[stMat] < len(q) {
			// Readings 80–160µs apart keep the observer off the views'
			// locks most of the time. The spacing is random: at a fixed
			// spacing every freshness sample fell on a grid of readings
			// after its ack, and a window's p50 jumped between two steps
			// of that grid from one run to the next.
			nap(time.Duration(20+rr.Intn(80)) * time.Microsecond)
			continue
		}
		wait := time.NewTimer(time.Until(nextRead))
		select {
		case <-feed.wake:
		case <-wait.C:
		}
		wait.Stop()
	}
}

// freshFrom is when a commit's freshness clock starts: its ack, except in
// replica-http, where the follower often shows a commit before the HTTP
// ack reaches the writer, so the clock starts when the commit was due to
// be sent (write-to-replica visibility).
func freshFrom(c commitRec, replicated bool) time.Time {
	if replicated {
		return c.due
	}
	return c.ack
}

// recordFreshness adds the freshness span of one commit, from its ack to
// the poll that saw it materialized, with one child per stage it passed.
func recordFreshness(tr *tracer, c commitRec, seen [nStages]time.Time, replicated bool) {
	root := tr.record("fresh", noSpan, freshFrom(c, replicated), seen[stMat])
	from := c.ack
	if replicated {
		tr.record("fresh.commit", root, c.due, c.ack)
		tr.record("fresh.ship", root, from, seen[stApplied])
		from = seen[stApplied]
	}
	tr.record("fresh.capture", root, from, seen[stCapture])
	tr.record("fresh.hwm", root, seen[stCapture], seen[stHWM])
	tr.record("fresh.apply", root, seen[stHWM], seen[stMat])
}
