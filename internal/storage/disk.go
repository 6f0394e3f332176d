// Package storage implements the stable-storage substrate of Multi-Ring
// Paxos: the acceptor log (persisted before Phase 1B/2B replies, Section
// 5.1), replica checkpoint stores, and the disk service-time models behind
// the five storage modes evaluated in Figure 3 of the paper (in-memory,
// synchronous and asynchronous writes on harddisks and SSDs).
//
// The paper's testbed used Berkeley DB JE on 7200-RPM harddisks and SSDs;
// here a disk is a calibrated service-time model: synchronous writes pay a
// per-operation commit latency plus transfer time, asynchronous writes are
// buffered and drained at the device bandwidth (a fluid model), blocking
// only when the write-back buffer is full. That captures exactly the two
// effects Figure 3 measures: sync mode is latency-bound by the device,
// async mode is throughput-bound by device bandwidth.
package storage

import (
	"sync"
	"time"
)

// DiskModel describes a storage device's service times.
type DiskModel struct {
	// SyncLatency is the per-operation commit latency for synchronous
	// writes (seek + rotation for HDDs, flash program for SSDs).
	SyncLatency time.Duration
	// Bandwidth is the sustained sequential write bandwidth in bytes/s.
	Bandwidth int64
	// BufferBytes is the write-back buffer capacity for asynchronous
	// writes; once the backlog exceeds it, writers block.
	BufferBytes int64
}

// Scale returns a copy of the model with all service times multiplied by f
// (bandwidth divided by f). Used to shrink experiment wall-clock time while
// preserving ratios between devices.
func (m DiskModel) Scale(f float64) DiskModel {
	if f <= 0 {
		f = 1
	}
	return DiskModel{
		SyncLatency: time.Duration(float64(m.SyncLatency) * f),
		Bandwidth:   int64(float64(m.Bandwidth) / f),
		BufferBytes: m.BufferBytes,
	}
}

// Device models from the paper's hardware (Section 8.1): 7200-RPM 4 TB
// harddisks and 240 GB SSDs.
var (
	// HDD: ~4 ms per synchronous commit (average rotational delay of a
	// 7200-RPM disk with track-buffered writes; calibrated so that the
	// paper's Figure 3 claim — >90% of 32 KB sync-disk requests under
	// 10 ms across two serialized acceptor persists — holds), ~120 MB/s
	// sequential.
	HDD = DiskModel{SyncLatency: 4 * time.Millisecond, Bandwidth: 120 << 20, BufferBytes: 64 << 20}
	// SSD: ~250 µs per synchronous commit, ~450 MB/s sequential.
	SSD = DiskModel{SyncLatency: 250 * time.Microsecond, Bandwidth: 450 << 20, BufferBytes: 64 << 20}
	// NullDisk completes every operation instantly (for in-memory mode).
	NullDisk = DiskModel{}
)

// Disk is one simulated storage device. Multiple writers (e.g. the rings of
// Figure 6 sharing one disk, or each ring with its own disk) contend on the
// same device queue.
//
// Device time is paid with time.Sleep, so the model inherits the runtime's
// timer slack: on an idle 2-core Linux machine with Go 1.24, 2000 calls of
// time.Sleep(250µs) measured p50 1.09 ms and p90 1.13 ms of wall time. A
// modelled 250 µs SSD commit therefore costs about 1 ms. Results that ride
// on sync SSD commits (dlog-sync, Figure 3's sync SSD rows) carry that
// oversleep; replacing the sleep with a virtual clock is open work.
type Disk struct {
	model DiskModel

	mu sync.Mutex
	// free is when the device completes its current queue (sync writes).
	free time.Time
	// backlog is the async write-back buffer occupancy in bytes.
	backlog    int64
	lastDrain  time.Time
	syncOps    uint64
	asyncOps   uint64
	writeBytes uint64
}

// NewDisk creates a device with the given model.
func NewDisk(model DiskModel) *Disk {
	return &Disk{model: model, lastDrain: time.Now()}
}

// SyncWrite persists n bytes synchronously: the caller blocks for the
// device queue, the commit latency, and the transfer time.
//
// Like CheckpointStore.Save it is a persistence sink: it models device
// time only, never what state machines compute, so it is free to read
// real clocks.
//
//mrp:nondeterministic
func (d *Disk) SyncWrite(n int) {
	if d == nil || d.model.SyncLatency == 0 && d.model.Bandwidth == 0 {
		return
	}
	svc := d.model.SyncLatency
	if d.model.Bandwidth > 0 {
		svc += time.Duration(float64(n) / float64(d.model.Bandwidth) * float64(time.Second))
	}
	d.mu.Lock()
	now := time.Now()
	start := now
	if d.free.After(start) {
		start = d.free
	}
	done := start.Add(svc)
	d.free = done
	d.syncOps++
	d.writeBytes += uint64(n)
	d.mu.Unlock()
	if wait := time.Until(done); wait > 0 {
		time.Sleep(wait)
	}
}

// AsyncWrite buffers n bytes for background write-back. It returns
// immediately unless the write-back buffer is full, in which case it blocks
// until the device has drained enough backlog (fluid model at the device
// bandwidth). A persistence sink, like SyncWrite.
//
//mrp:nondeterministic
func (d *Disk) AsyncWrite(n int) {
	if d == nil || d.model.Bandwidth == 0 {
		return
	}
	d.mu.Lock()
	now := time.Now()
	// Drain the backlog at device bandwidth since the last update.
	drained := int64(now.Sub(d.lastDrain).Seconds() * float64(d.model.Bandwidth))
	if drained > 0 {
		d.backlog -= drained
		if d.backlog < 0 {
			d.backlog = 0
		}
		d.lastDrain = now
	}
	d.backlog += int64(n)
	d.asyncOps++
	d.writeBytes += uint64(n)
	over := d.backlog - d.model.BufferBytes
	d.mu.Unlock()
	if over > 0 {
		// Block until the overflow would have drained.
		time.Sleep(time.Duration(float64(over) / float64(d.model.Bandwidth) * float64(time.Second)))
	}
}

// Stats reports cumulative operation and byte counts.
func (d *Disk) Stats() (syncOps, asyncOps, bytes uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncOps, d.asyncOps, d.writeBytes
}
