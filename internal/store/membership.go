package store

import (
	"fmt"

	"mrp/internal/cluster"
	"mrp/internal/msg"
	"mrp/internal/ringpaxos"
	"mrp/internal/transport"
)

// This file is the single place ring memberships come from: both Deploy
// and RecoverReplica derive who sits on which ring, in which order, with
// which Paxos roles, from the versioned Schema — the same structure that
// routes clients. Deriving memberships from the
// schema instead of the static DeployConfig is what makes recovery work
// for partitions that did not exist at deploy time (live splits).

// schemaMemberships derives the ring memberships of replica r of partition
// p from the schema: the partition's own ring (every replica is proposer,
// acceptor, and learner) plus, when the partition subscribes to the global
// ring, the global ring (every subscribed replica proposes and learns; the
// first replica of each subscribed partition is additionally an acceptor,
// exactly as Deploy wires it).
//
// Each membership names the ring and its full peer list in ring order;
// the replica's acceptor log for it is filled in at assembly.
func schemaMemberships(s Schema, p, r int) ([]cluster.Ring, error) {
	if p < 0 || p >= s.Partitions || p >= len(s.Replicas) {
		return nil, fmt.Errorf("store: schema (epoch %d) has no partition %d", s.Epoch, p)
	}
	if schemaRetired(s, p) {
		return nil, fmt.Errorf("store: partition %d was retired by a merge (schema epoch %d)", p, s.Epoch)
	}
	if r < 0 || r >= len(s.Replicas[p]) {
		return nil, fmt.Errorf("store: schema (epoch %d) has no replica %d in partition %d", s.Epoch, r, p)
	}
	out := []cluster.Ring{{ID: s.RingOf(p), Peers: partitionPeers(p, s.Replicas[p])}}
	if s.GlobalRing && schemaOnGlobal(s, p) {
		out = append(out, cluster.Ring{ID: s.globalRingID(), Peers: globalPeers(s)})
	}
	return out, nil
}

// partitionPeers lists partition p's ring members, at addrs, in ring order.
func partitionPeers(p int, addrs []transport.Addr) []ringpaxos.Peer {
	peers := make([]ringpaxos.Peer, 0, len(addrs))
	for r, addr := range addrs {
		peers = append(peers, ringpaxos.Peer{
			ID:    nodeIDFor(p, r),
			Addr:  addr,
			Roles: ringpaxos.RoleProposer | ringpaxos.RoleAcceptor | ringpaxos.RoleLearner,
		})
	}
	return peers
}

// globalPeers lists the global ring's members: all replicas of every
// partition subscribed to it, partition-major, so every derivation of the
// membership — at deploy time or during a recovery — agrees on the ring
// order.
func globalPeers(s Schema) []ringpaxos.Peer {
	var peers []ringpaxos.Peer
	for p := 0; p < s.Partitions && p < len(s.Replicas); p++ {
		if !schemaOnGlobal(s, p) {
			continue
		}
		for r, addr := range s.Replicas[p] {
			peer := ringpaxos.Peer{
				ID:    nodeIDFor(p, r),
				Addr:  addr,
				Roles: ringpaxos.RoleProposer | ringpaxos.RoleLearner,
			}
			if r == 0 {
				// Only the first replica of each partition accepts on the
				// global ring; everyone learns and proposes.
				peer.Roles |= ringpaxos.RoleAcceptor
			}
			peers = append(peers, peer)
		}
	}
	return peers
}

// schemaOnGlobal reports whether partition p subscribes to the global
// ring; schemas published before OnGlobal existed had every partition on
// it.
func schemaOnGlobal(s Schema, p int) bool {
	return p >= len(s.OnGlobal) || s.OnGlobal[p]
}

// schemaRetired reports whether partition p's index was merged away.
func schemaRetired(s Schema, p int) bool {
	return p < len(s.Retired) && s.Retired[p]
}

// globalRingID returns the global ring's identifier, falling back to the
// legacy static mapping for schemas published before it was explicit.
func (s Schema) globalRingID() msg.RingID {
	if s.GlobalRingID != 0 {
		return msg.RingID(s.GlobalRingID)
	}
	return msg.RingID(s.Partitions + 1)
}
