package store

import (
	"fmt"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// This file holds the client-side half of the online reconfiguration
// protocol: thin, totally-ordered admin commands the rebalance coordinator
// (internal/rebalance) composes into zero-downtime repartitionings —
// splits, merges, and the ordered aborts that make either recoverable when
// a coordinator dies between prepare and commit. They are exported for the
// coordinator, not for applications.

// AddRoute teaches the client the proposer addresses of a ring before the
// deployment commits it (the coordinator must reach a split partition's
// ring while it is still warming).
func (c *Client) AddRoute(ring msg.RingID, addrs []transport.Addr) {
	c.smr.SetProposers(ring, addrs)
}

// PrepareSplit orders the range freeze through ring via (the global ring
// when available, else the source partition's own ring) and returns the
// frozen entries of the moved range, gathered specifically from the source
// partition src. epoch is the post-split epoch; newPart the partition
// index receiving [splitKey, ...); next the authoritative post-split
// mapping every replica installs (a replica's own mapping may be stale:
// reconfigurations ordered on rings it does not subscribe to never
// reached it).
//
//mrp:ordered
func (c *Client) PrepareSplit(via msg.RingID, src int, splitKey string, newPart int, epoch uint64, next Partitioner) ([]Entry, error) {
	o := op{kind: opPrepareReconfig, rkind: reconfigSplit, epoch: epoch,
		part: uint16(src), newPart: uint16(newPart), key: splitKey, pmap: next}
	results, err := c.smr.ExecuteGather(via, o.encode(), 1, func(raw []byte) (int, bool) {
		res, err := decodeResult(raw)
		if err != nil || res.status != statusOK {
			return 0, false
		}
		return int(res.partition), int(res.partition) == src
	})
	if err != nil {
		return nil, err
	}
	raw, ok := results[src]
	if !ok {
		return nil, fmt.Errorf("store: no prepare-split reply from partition %d", src)
	}
	res, err := decodeResult(raw)
	if err != nil {
		return nil, err
	}
	return res.entries, nil
}

// PrepareMergeDest arms the merge survivor: ordered on its ring, it makes
// every survivor replica accept epoch-tagged migrate chunks for the range
// it will own once the merge commits. Ordered before the donor freeze so
// an abort between the two has only this (side-effect-free) arming to
// undo.
//
//mrp:ordered
func (c *Client) PrepareMergeDest(destRing msg.RingID, donor, dest int, epoch uint64) error {
	o := op{kind: opPrepareReconfig, rkind: reconfigMergeDest, epoch: epoch,
		part: uint16(donor), newPart: uint16(dest)}
	res, err := c.exec(destRing, o)
	if err != nil {
		return err
	}
	if res.status != statusOK {
		return fmt.Errorf("store: prepare merge destination %d failed (status %d)", dest, res.status)
	}
	return nil
}

// PrepareMergeDonor orders the donor freeze through the donor's own ring
// and returns the donor's entire owned range: from this point every
// command on the donor — keyed ops and scans alike — is redirected, so
// the returned entries are exactly the state the survivor must end up
// with and nothing stale can be read from the donor afterwards.
//
//mrp:ordered
func (c *Client) PrepareMergeDonor(donorRing msg.RingID, donor, dest int, epoch uint64) ([]Entry, error) {
	o := op{kind: opPrepareReconfig, rkind: reconfigMergeDonor, epoch: epoch,
		part: uint16(donor), newPart: uint16(dest)}
	res, err := c.exec(donorRing, o)
	if err != nil {
		return nil, err
	}
	if res.status != statusOK {
		return nil, fmt.Errorf("store: prepare merge donor %d failed (status %d)", donor, res.status)
	}
	return res.entries, nil
}

// MigrateChunk streams one chunk of frozen entries onto the destination
// partition's ring; its replicas — warming (split) or receiving (merge) —
// install the entries in delivery order, before any client command can
// observe them.
//
//mrp:ordered
func (c *Client) MigrateChunk(ring msg.RingID, dest int, epoch uint64, entries []Entry) error {
	o := op{kind: opMigrate, epoch: epoch, part: uint16(dest)}
	for _, e := range entries {
		o.batch = append(o.batch, op{kind: opInsert, epoch: epoch, key: e.Key, value: e.Value})
	}
	res, err := c.exec(ring, o)
	if err != nil {
		return err
	}
	if res.status != statusOK || int(res.count) != len(entries) {
		return fmt.Errorf("store: migrate chunk applied %d/%d (status %d)", res.count, len(entries), res.status)
	}
	return nil
}

// ActivatePartition ends the new partition's warming phase: ordered on its
// ring after every migrated chunk, so a replica that serves any client
// command has necessarily installed the full moved range first.
//
//mrp:ordered
func (c *Client) ActivatePartition(ring msg.RingID, part int, epoch uint64) error {
	res, err := c.exec(ring, op{kind: opActivatePart, epoch: epoch, part: uint16(part)})
	if err != nil {
		return err
	}
	if res.status != statusOK {
		return fmt.Errorf("store: activate partition %d failed (status %d)", part, res.status)
	}
	return nil
}

// CommitSplit orders the split's ownership flip through ring via: the
// source partition drops the moved range and every replica on the ring
// adopts the new epoch. From this point stale clients are redirected to
// the adopted schema.
//
//mrp:ordered
func (c *Client) CommitSplit(via msg.RingID, src int, epoch uint64) error {
	res, err := c.exec(via, op{kind: opCommitReconfig, rkind: reconfigSplit, epoch: epoch, part: uint16(src)})
	if err != nil {
		return err
	}
	if res.status != statusOK {
		return fmt.Errorf("store: commit split failed (status %d)", res.status)
	}
	return nil
}

// CommitMerge orders the merge's ownership flip through the survivor's
// ring, after every migrate chunk: the survivor replicas adopt the merged
// mapping next (the donor's index drops out of the assignment) and the new
// epoch, and start serving the donor's range. The donor never commits — it
// stays frozen until RetirePartition tears its ring down.
//
//mrp:ordered
func (c *Client) CommitMerge(destRing msg.RingID, donor, dest int, epoch uint64, next Partitioner) error {
	o := op{kind: opCommitReconfig, rkind: reconfigMergeDest, epoch: epoch,
		part: uint16(donor), newPart: uint16(dest), pmap: next}
	res, err := c.exec(destRing, o)
	if err != nil {
		return err
	}
	if res.status != statusOK {
		return fmt.Errorf("store: commit merge failed (status %d)", res.status)
	}
	return nil
}

// AbortReconfig orders the inverse of a prepare through the given ring:
// replicas with pending state at the aborted epoch restore the
// pre-prepare mapping, unfreeze frozen ranges, and drop half-transferred
// entries; everyone else treats it as an idempotent duplicate, so it is
// safe to issue against a ring that never saw the prepare (a coordinator
// that crashed before ordering anything).
//
//mrp:ordered
func (c *Client) AbortReconfig(via msg.RingID, epoch uint64) error {
	res, err := c.exec(via, op{kind: opAbortReconfig, epoch: epoch})
	if err != nil {
		return err
	}
	if res.status != statusOK {
		return fmt.Errorf("store: abort reconfiguration failed (status %d)", res.status)
	}
	return nil
}
