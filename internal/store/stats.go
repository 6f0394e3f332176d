package store

import (
	"fmt"
	"time"

	"mrp/internal/msg"
)

// This file is the stats surface of MRP-Store: per-partition load and size
// accounting kept by the state machines (over SortedMap), exposed through
// the deployment handle for co-located controllers and through a
// client-visible Stats read for remote ones. The auto-sharding controller
// (internal/autoshard) samples it to decide when to split a hot partition
// or merge a cold one.

// PartitionStats is one partition's accounting at a point in time.
type PartitionStats struct {
	// Partition is the partition index the stats describe.
	Partition int
	// Keys is the number of entries currently stored.
	Keys uint64
	// Bytes is the total key+value payload currently stored.
	Bytes uint64
	// Ops is the cumulative count of client data operations executed
	// (reads, writes, scans, batch sub-ops; admin and migration commands
	// do not count). It is process-local: a recovered replica restarts at
	// zero. Consumers derive load as the delta between two samples.
	Ops uint64
}

// Stats returns the partition's current accounting. Safe to call from any
// goroutine (the map is internally synchronized and the op counter
// atomic).
func (s *SM) Stats() PartitionStats {
	return PartitionStats{
		Partition: s.partition,
		Keys:      uint64(s.data.Len()),
		Bytes:     uint64(s.data.Bytes()),
		Ops:       s.statOps.Load(),
	}
}

// applyStats serves the ordered opStats read. It answers even while the
// partition is warming, migrating, or frozen — a controller watching a
// reconfiguration in flight still needs the numbers. A command that
// reached the wrong partition (a stale view routed it to a ring whose ID
// was recycled by a later reconfiguration) gets the typed wrong-epoch
// redirect, the same self-correction contract as every data op.
func (s *SM) applyStats(o op) result {
	if int(o.part) != s.partition {
		return s.wrongEpoch()
	}
	res := result{status: statusOK, partition: uint16(s.partition), epoch: s.epoch}
	res.value = encodeStatsPayload(s.Stats())
	return res
}

// encodeStatsPayload packs stats into a result value.
func encodeStatsPayload(st PartitionStats) []byte {
	w := msg.Writer{Buf: make([]byte, 0, 24)}
	w.U64(st.Keys)
	w.U64(st.Bytes)
	w.U64(st.Ops)
	return w.Buf
}

func decodeStatsPayload(b []byte) (PartitionStats, error) {
	r := msg.NewReader(b)
	st := PartitionStats{Keys: r.U64(), Bytes: r.U64(), Ops: r.U64()}
	if r.Done() != nil {
		return PartitionStats{}, errBadOp
	}
	return st, nil
}

// PartitionStats reads one committed partition's accounting from the first
// live replica's state machine, without paying consensus — the sampling
// path of a controller co-located with the deployment handle. It returns
// false for retired tombstones, uncommitted partitions, and partitions
// with no live replica.
func (d *Deployment) PartitionStats(p int) (PartitionStats, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if p < 0 || p >= d.partitioner.N() || p >= len(d.parts) || d.parts[p].retired || p >= len(d.Replicas) {
		return PartitionStats{}, false
	}
	for _, h := range d.Replicas[p] {
		if h != nil && !h.Stopped() {
			return h.SM.Stats(), true
		}
	}
	return PartitionStats{}, false
}

// Stats reads one partition's accounting through the ordered read path
// (multicast on the partition's ring, answered by the first replica) — the
// client-visible half of the stats surface, for controllers and tools not
// co-located with the deployment.
//
//mrp:ordered
func (c *Client) Stats(partition int) (PartitionStats, error) {
	deadline := time.Now().Add(c.timeout)
	for {
		v := c.viewFor()
		if partition < 0 || partition >= len(v.rings) || v.rings[partition] == 0 {
			return PartitionStats{}, fmt.Errorf("store: no live partition %d in schema epoch %d", partition, v.epoch)
		}
		res, err := c.exec(v.rings[partition], op{kind: opStats, epoch: v.epoch, part: uint16(partition)})
		if err != nil {
			if c.rerouteOnTimeout(err, v.epoch, deadline) {
				continue
			}
			return PartitionStats{}, err
		}
		if res.status == statusWrongEpoch {
			// Stale route (e.g. the ring ID was recycled for another
			// partition): refresh and retry, like every data op.
			if time.Now().After(deadline) {
				return PartitionStats{}, &WrongEpochError{ClientEpoch: v.epoch, ServerEpoch: res.epoch}
			}
			c.repace(v.epoch)
			continue
		}
		if res.status != statusOK {
			return PartitionStats{}, fmt.Errorf("store: stats of partition %d failed (status %d)", partition, res.status)
		}
		st, err := decodeStatsPayload(res.value)
		if err != nil {
			return PartitionStats{}, err
		}
		st.Partition = partition
		return st, nil
	}
}
