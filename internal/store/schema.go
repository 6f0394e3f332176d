package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"mrp/internal/msg"
	"mrp/internal/registry"
	"mrp/internal/transport"
)

// SchemaPath is where the partitioning schema lives in the coordination
// service ("the partitioning schema is stored in Zookeeper and accessible
// to all processes", Section 7.2).
const SchemaPath = "/mrp-store/schema"

// ErrNoSchema reports that the coordination service has no published
// schema yet — a legitimate state for a deployment that never published,
// as opposed to a registry error or a corrupt schema node.
var ErrNoSchema = errors.New("store: no schema published")

// Schema is the client-visible description of a deployment: how keys map
// to partitions, which ring orders each partition's commands, and where
// each partition's replicas are.
//
// # Versioned-schema protocol
//
// The schema is no longer a load-once snapshot. Every published schema
// carries an Epoch, and every client command carries the epoch it was
// routed under. The protocol between publishers, replicas, and clients:
//
//  1. Exactly one writer (the rebalance coordinator) advances the schema,
//     using compare-and-set on the registry node so a concurrent publisher
//     is detected instead of silently overwritten (PublishSchemaCAS).
//  2. Replicas learn epoch changes only through totally-ordered commands
//     on their rings (opPrepareReconfig / opCommitReconfig /
//     opAbortReconfig), never by watching the registry — so all replicas
//     of a partition switch mappings at the same logical point in the
//     delivery order.
//  3. Clients cache the schema and watch the registry node
//     (WatchSchema); a replica answering statusWrongEpoch is the typed
//     redirect telling a stale client to refresh and re-route before
//     retrying. Watch delivery is coalescing and non-blocking, so slow
//     clients can never stall the registry.
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

// buildSchema snapshots the deployment's committed topology, including the
// key-mapping half clients need. Callers hold d.mu (read or write).
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
		return Schema{}, fmt.Errorf("store: partitioner %T cannot be published", d.partitioner)
	}
	return s, nil
}

// PublishSchema writes the deployment's schema to the coordination
// service so clients can discover partitioning and replica placement.
// Rebalance coordinators use PublishSchemaCAS instead.
func (d *Deployment) PublishSchema(reg *registry.Registry) error {
	d.mu.RLock()
	s, err := d.buildSchema()
	d.mu.RUnlock()
	if err != nil {
		return err
	}
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	reg.Set(SchemaPath, data)
	d.leaseReg.Store(reg)
	return nil
}

// PublishSchemaCAS publishes the current schema only if the registry node
// is still at the expected version (0 = not yet published), returning the
// new version. A false result means a concurrent publisher advanced the
// schema; the caller must re-read and reconcile rather than overwrite.
func (d *Deployment) PublishSchemaCAS(reg *registry.Registry, expect uint64) (uint64, bool, error) {
	d.mu.RLock()
	s, err := d.buildSchema()
	d.mu.RUnlock()
	if err != nil {
		return 0, false, err
	}
	data, err := json.Marshal(s)
	if err != nil {
		return 0, false, err
	}
	v, ok := reg.CompareAndSet(SchemaPath, data, expect)
	d.leaseReg.Store(reg)
	return v, ok, nil
}

// PublishSchemaAsCAS publishes the deployment's current schema under the
// caller-chosen epoch instead of the committed one. It exists for exactly
// one caller: an aborted reconfiguration that already published its
// schema must overwrite it with the reverted mapping, and republishing at
// the (lower) reverted epoch would wedge every client that saw the
// aborted epoch — client refreshes rightly refuse to install an older
// epoch. Republishing the reverted mapping under the aborted epoch keeps
// client epochs monotonic; the next reconfiguration reuses the same epoch
// with a new mapping, which watchers install because refreshes accept
// equal epochs.
func (d *Deployment) PublishSchemaAsCAS(reg *registry.Registry, epoch, expect uint64) (uint64, bool, error) {
	d.mu.RLock()
	s, err := d.buildSchema()
	d.mu.RUnlock()
	if err != nil {
		return 0, false, err
	}
	s.Epoch = epoch
	data, err := json.Marshal(s)
	if err != nil {
		return 0, false, err
	}
	v, ok := reg.CompareAndSet(SchemaPath, data, expect)
	d.leaseReg.Store(reg)
	return v, ok, nil
}

// LoadSchema reads the published schema from the coordination service.
func LoadSchema(reg *registry.Registry) (Schema, error) {
	s, _, err := LoadSchemaAt(reg)
	return s, err
}

// LoadSchemaAt reads the published schema together with its registry
// version (the CAS token for the next publish).
func LoadSchemaAt(reg *registry.Registry) (Schema, uint64, error) {
	data, version, ok := reg.Get(SchemaPath)
	if !ok {
		return Schema{}, 0, fmt.Errorf("%w at %s", ErrNoSchema, SchemaPath)
	}
	var s Schema
	if err := json.Unmarshal(data, &s); err != nil {
		return Schema{}, 0, fmt.Errorf("store: bad schema: %w", err)
	}
	return s, version, nil
}

// WatchSchema returns a coalescing event channel that fires whenever the
// published schema changes; watchers re-read with LoadSchema on wakeup.
func WatchSchema(reg *registry.Registry) <-chan registry.Event {
	return reg.Watch(SchemaPath)
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
