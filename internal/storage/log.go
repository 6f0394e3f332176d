package storage

import (
	"fmt"
	"sort"
	"sync"

	"mrp/internal/msg"
)

// Mode selects how the acceptor log persists records — the five storage
// modes of Figure 3.
type Mode int

// Storage modes.
const (
	InMemory Mode = iota
	AsyncHDD
	AsyncSSD
	SyncHDD
	SyncSSD
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case InMemory:
		return "In Memory"
	case AsyncHDD:
		return "Async Disk"
	case AsyncSSD:
		return "Async Disk (SSD)"
	case SyncHDD:
		return "Sync Disk"
	case SyncSSD:
		return "Sync Disk (SSD)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// IsSync reports whether the mode persists each record before returning.
func (m Mode) IsSync() bool { return m == SyncHDD || m == SyncSSD }

// DiskFor returns the device model behind a mode.
func (m Mode) DiskFor() DiskModel {
	switch m {
	case AsyncHDD, SyncHDD:
		return HDD
	case AsyncSSD, SyncSSD:
		return SSD
	default:
		return NullDisk
	}
}

// Record is what an acceptor persists for one consensus instance before
// answering a Phase 1B or Phase 2B message (Section 5.1): the highest
// promised round, the highest voted round, and the voted value.
type Record struct {
	Rnd     msg.Ballot
	VRnd    msg.Ballot
	Value   msg.Value
	Decided bool
}

// recordOverhead approximates the on-disk framing per record.
const recordOverhead = 32

// Log is an acceptor's stable storage for one ring: a map from consensus
// instance to Record with an explicit low watermark advanced by Trim. All
// methods are safe for concurrent use.
//
// A write has two halves. Stage puts the record into the index, where it
// is visible at once; Commit pays the device time. Put does both. A ring
// process stages on its event loop and commits on a writer goroutine, so
// the loop keeps forwarding and delivering while the device works.
//
// The paper's acceptors used pre-allocated in-memory buffers of 15000 slots
// × 32 KB and Berkeley DB for disk modes; here the in-memory index is a map
// (the slot pre-allocation was a JVM garbage-collection optimization, not
// protocol behaviour) and the disk is a service-time model.
type Log struct {
	mode Mode
	disk *Disk

	mu      sync.Mutex
	records map[msg.Instance]Record
	low     msg.Instance // instances <= low were trimmed
	high    msg.Instance // highest instance ever stored
}

// NewLog creates an acceptor log in the given mode with its own device.
func NewLog(mode Mode) *Log {
	return NewLogOnDisk(mode, NewDisk(mode.DiskFor()))
}

// NewLogOnDisk creates an acceptor log that shares the given device with
// other logs (used by the vertical-scalability experiment, where the
// ring-to-disk mapping is the parameter under study).
func NewLogOnDisk(mode Mode, disk *Disk) *Log {
	return &Log{
		mode:    mode,
		disk:    disk,
		records: make(map[msg.Instance]Record),
	}
}

// Mode returns the log's storage mode.
func (l *Log) Mode() Mode { return l.mode }

// Put persists the record for an instance: Stage followed by Commit. In
// synchronous modes it blocks until the device has committed the write; in
// asynchronous modes it blocks only when the device's write-back buffer is
// full. Records at or below the low watermark are rejected (the instance
// was already trimmed).
func (l *Log) Put(inst msg.Instance, rec Record) error {
	n, err := l.Stage(inst, rec)
	if err != nil {
		return err
	}
	l.Commit(n)
	return nil
}

// Stage inserts the record for an instance into the in-memory index and
// returns the number of bytes Commit must persist for it. The record is
// visible to Get and Range at once, before it is durable: an acceptor
// stages its vote in event-loop order, so a later promise reports it, and
// holds back every message that depends on the vote until Commit returns.
// Records at or below the low watermark are rejected (the instance was
// already trimmed). A decided record stays decided, with its value: a vote
// that reaches the acceptor after the decision (a coordinator's retry)
// must not hide the instance from retransmission.
func (l *Log) Stage(inst msg.Instance, rec Record) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if inst <= l.low {
		return 0, fmt.Errorf("storage: instance %d already trimmed (low=%d)", inst, l.low)
	}
	if old := l.records[inst]; old.Decided {
		rec.Value, rec.Decided = old.Value, true
	}
	l.records[inst] = rec
	if inst > l.high {
		l.high = inst
	}
	return recordOverhead + rec.Value.PayloadBytes(), nil
}

// Commit pays the device time for n staged bytes: a synchronous write in
// the sync modes, a buffered one in the async modes (blocking only when the
// write-back buffer is full), nothing in memory. It takes no lock, so
// callers may commit off the goroutine that staged.
func (l *Log) Commit(n int) {
	switch l.mode {
	case SyncHDD, SyncSSD:
		l.disk.SyncWrite(n)
	case AsyncHDD, AsyncSSD:
		l.disk.AsyncWrite(n)
	}
}

// Get returns the record for an instance, if present.
func (l *Log) Get(inst msg.Instance) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.records[inst]
	return r, ok
}

// Range calls fn for each stored instance in [from, to), in ascending
// order, and reports whether any instance in the range was already trimmed.
// Ranges spanning far more instance numbers than live records (common when
// rate-leveling skips consume large instance ranges) are served by sorting
// the live keys instead of walking every instance number.
//
// Replay served from this walk must be ascending and identical everywhere,
// so the function is in deterministic scope.
//
//mrp:deterministic
func (l *Log) Range(from, to msg.Instance, fn func(msg.Instance, Record)) (trimmed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from <= l.low {
		trimmed = true
		from = l.low + 1
	}
	if to < from {
		return trimmed
	}
	span := uint64(to - from)
	if span <= uint64(len(l.records)) {
		for i := from; i < to; i++ {
			if r, ok := l.records[i]; ok {
				fn(i, r)
			}
		}
		return trimmed
	}
	keys := make([]msg.Instance, 0, len(l.records))
	for i := range l.records {
		if i >= from && i < to {
			keys = append(keys, i)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, i := range keys {
		fn(i, l.records[i])
	}
	return trimmed
}

// Trim deletes all records at or below upTo (the coordinator's K[x]_T from
// Predicate 2) and advances the low watermark.
func (l *Log) Trim(upTo msg.Instance) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if upTo <= l.low {
		return
	}
	for i := l.low + 1; i <= upTo; i++ {
		delete(l.records, i)
	}
	l.low = upTo
}

// MarkDecided records that an instance decided the given value, so the
// acceptor can serve retransmission requests (LearnReq) for it. Decisions
// are derivable from a majority of acceptor votes, so this index update is
// not charged to the device. Marking below the low watermark is a no-op.
func (l *Log) MarkDecided(inst msg.Instance, v msg.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if inst <= l.low {
		return
	}
	r := l.records[inst]
	r.Value = v
	r.Decided = true
	l.records[inst] = r
	if inst > l.high {
		l.high = inst
	}
}

// LowWatermark returns the highest trimmed instance (0 if never trimmed).
func (l *Log) LowWatermark() msg.Instance {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.low
}

// HighWatermark returns the highest instance ever stored.
func (l *Log) HighWatermark() msg.Instance {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.high
}

// Len returns the number of live records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}
