package main

import (
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// countingDevice wraps the WAL device a database is opened with. Bytes pass
// through unchanged and every Sync reaches the inner device, so durability
// is the inner device's; the wrapper only counts appends, bytes, syncs and
// the time spent in Sync, and records a span per call when tracing is on.
type countingDevice struct {
	inner wal.Device
	tr    *tracer

	appends   atomic.Int64
	bytes     atomic.Int64
	syncs     atomic.Int64
	syncNanos atomic.Int64
}

func newCountingDevice(inner wal.Device, tr *tracer) *countingDevice {
	return &countingDevice{inner: inner, tr: tr}
}

func (d *countingDevice) Append(p []byte) error {
	id := d.tr.begin("wal.append")
	err := d.inner.Append(p)
	d.tr.end(id)
	d.appends.Add(1)
	d.bytes.Add(int64(len(p)))
	return err
}

func (d *countingDevice) Sync() error {
	id := d.tr.begin("wal.sync")
	start := time.Now()
	err := d.inner.Sync()
	d.syncNanos.Add(int64(time.Since(start)))
	d.tr.end(id)
	d.syncs.Add(1)
	return err
}

func (d *countingDevice) ReadAt(p []byte, off int64) (int, error) { return d.inner.ReadAt(p, off) }
func (d *countingDevice) Size() int64                             { return d.inner.Size() }
func (d *countingDevice) Truncate(n int64) error                  { return d.inner.Truncate(n) }
func (d *countingDevice) Close() error                            { return d.inner.Close() }

type deviceCounts struct {
	appends, bytes, syncs int64
	syncTime              time.Duration
}

func (d *countingDevice) counts() deviceCounts {
	return deviceCounts{
		appends:  d.appends.Load(),
		bytes:    d.bytes.Load(),
		syncs:    d.syncs.Load(),
		syncTime: time.Duration(d.syncNanos.Load()),
	}
}
