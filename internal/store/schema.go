package store

import (
	"fmt"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// Schema is the client-visible description of a deployment: how keys map
// to partitions, which ring orders each partition's commands, and where
// each partition's replicas are.
//
// # Versioned-schema protocol
//
// The schema is replicated state: every replica carries it in its
// snapshots, and the Deployment keeps the committed copy that routes its
// clients. Every schema carries an Epoch, and every client command carries
// the epoch it was routed under. The protocol between the rebalance
// coordinator, replicas, and clients:
//
//  1. Exactly one writer (the rebalance coordinator) advances the schema.
//     Deployment.AdoptReconfig installs epoch e only over epoch e-1, so a
//     concurrent publisher is detected instead of silently overwritten.
//  2. Replicas learn epoch changes only through totally-ordered commands
//     on their rings (opPrepareReconfig / opCommitReconfig /
//     opAbortReconfig) — so all replicas of a partition switch mappings
//     at the same logical point in the delivery order.
//  3. Clients cache a routing view of the deployment's schema and refresh
//     it before an attempt whenever the deployment's epoch is ahead of it;
//     a replica answering statusWrongEpoch is the typed redirect telling a
//     stale client to refresh and re-route before retrying.
//
// Partition indexes are stable across epochs: splits only append indexes
// and merges only retire them — neither renumbers a surviving partition
// (see RangePartitioner.Split and RangePartitioner.Merge). A retired
// index keeps its slot in the per-partition arrays, marked in Retired,
// until the index space shrinks past it.
type Schema struct {
	// Epoch is the schema version; bumped by one on every rebalance.
	Epoch uint64 `json:"epoch"`
	// Kind is "hash" or "range".
	Kind string `json:"kind"`
	// Partitions is the partition count.
	Partitions int `json:"partitions"`
	// Bounds are the range partitioner's boundary keys (range
	// partitioning; len = partitions-1).
	Bounds []string `json:"bounds,omitempty"`
	// Assign maps each key slot (between consecutive bounds) to the
	// partition index owning it; nil means slot i is partition i. Splits
	// populate this so existing partitions keep their indexes.
	Assign []int `json:"assign,omitempty"`
	// Replicas lists, per partition, the replica addresses.
	Replicas [][]transport.Addr `json:"replicas"`
	// Rings lists, per partition, the ring ordering its commands.
	Rings []uint16 `json:"rings"`
	// GlobalRing reports whether cross-partition commands are ordered
	// through a global ring.
	GlobalRing bool `json:"globalRing"`
	// GlobalRingID is the global ring's identifier when GlobalRing is set.
	GlobalRingID uint16 `json:"globalRingID,omitempty"`
	// OnGlobal reports, per partition, whether its replicas subscribe to
	// the global ring. Partitions added by a live split are not members of
	// the global ring; scans touching them fan out per partition.
	OnGlobal []bool `json:"onGlobal,omitempty"`
	// Retired marks partition indexes merged away by an online merge: no
	// key routes to them, their rings are torn down, and their replica
	// lists are empty. Clients skip them when building routes.
	Retired []bool `json:"retired,omitempty"`
}

// topologySchema snapshots the membership half of the schema — the
// committed partition count and, per partition, the replica addresses,
// ring, and global-ring subscription. It is what both Deploy and
// RecoverReplica feed the schemaMemberships builder, so deployment and
// recovery agree on ring order and roles by construction. Callers hold
// d.mu (read or write).
func (d *Deployment) topologySchema() Schema {
	s := Schema{
		Epoch:      d.epoch,
		Partitions: d.partitioner.N(),
		GlobalRing: d.cfg.GlobalRing,
	}
	if d.cfg.GlobalRing {
		s.GlobalRingID = uint16(d.GlobalRingID())
	}
	for p := 0; p < s.Partitions && p < len(d.parts); p++ {
		if d.parts[p].retired {
			s.Replicas = append(s.Replicas, nil)
			s.Rings = append(s.Rings, 0)
			s.OnGlobal = append(s.OnGlobal, false)
			s.Retired = append(s.Retired, true)
			continue
		}
		s.Replicas = append(s.Replicas, append([]transport.Addr(nil), d.parts[p].addrs...))
		s.Rings = append(s.Rings, uint16(d.parts[p].ring))
		s.OnGlobal = append(s.OnGlobal, d.parts[p].onGlobal)
		s.Retired = append(s.Retired, false)
	}
	return s
}

// buildSchema snapshots the deployment's committed schema, the membership
// half together with the key mapping. Callers hold d.mu (read or write).
func (d *Deployment) buildSchema() (Schema, error) {
	s := d.topologySchema()
	switch p := d.partitioner.(type) {
	case *HashPartitioner:
		s.Kind = "hash"
	case *RangePartitioner:
		s.Kind = "range"
		s.Bounds = p.Bounds()
		s.Assign = p.Assignments()
	default:
		return Schema{}, fmt.Errorf("store: partitioner %T cannot be described", d.partitioner)
	}
	return s, nil
}

// PartitionerFor builds the partitioner the schema describes.
func (s Schema) PartitionerFor() (Partitioner, error) {
	switch s.Kind {
	case "hash":
		return NewHashPartitioner(s.Partitions), nil
	case "range":
		if s.Assign == nil {
			// Legacy schema: slot i is partition i, so slots == partitions.
			if len(s.Bounds) != s.Partitions-1 {
				return nil, fmt.Errorf("store: schema has %d bounds for %d partitions",
					len(s.Bounds), s.Partitions)
			}
			return NewRangePartitioner(s.Bounds), nil
		}
		// Assigned schema: slot and partition counts diverge once a merge
		// coalesces slots or retires an index; only their relation holds.
		return newRangePartitionerAssigned(s.Bounds, s.Assign)
	default:
		return nil, fmt.Errorf("store: unknown partitioning kind %q", s.Kind)
	}
}

// RingOf returns the ring ordering partition p's commands, falling back to
// the legacy static mapping for schemas published before rings were
// explicit.
func (s Schema) RingOf(p int) msg.RingID {
	if p < len(s.Rings) {
		return msg.RingID(s.Rings[p])
	}
	return msg.RingID(p + 1)
}
