package store

import (
	"mrp/internal/cluster"
	"mrp/internal/ringpaxos"
	"mrp/internal/transport"
)

// memberships lists the rings every replica of partition p sits on, read
// from the deployment's partition table: the partition's own ring plus,
// when the partition subscribes to it, the global ring, each with its full
// peer list in ring order (the acceptor log is filled in at assembly).
// Deploy and RecoverReplica both wire replicas from it, so a replica
// rebuilt after a crash rejoins rings whose order and roles match the
// survivors', live-split partitions included. Callers hold d.mu (read or
// write) and pass a live partition index.
func (d *Deployment) memberships(p int) []cluster.Ring {
	meta := d.parts[p]
	out := []cluster.Ring{{ID: meta.ring, Peers: ringPeers(p, meta.addrs, false)}}
	if meta.onGlobal {
		out = append(out, cluster.Ring{ID: d.GlobalRingID(), Peers: d.globalPeers})
	}
	return out
}

// ringPeers lists partition p's replicas, at addrs, as ring members in
// replica order. Every member proposes and learns; on the partition's own
// ring every member accepts, on the global ring only the first replica of
// each partition does.
func ringPeers(p int, addrs []transport.Addr, global bool) []ringpaxos.Peer {
	peers := make([]ringpaxos.Peer, len(addrs))
	for r, addr := range addrs {
		roles := ringpaxos.RoleProposer | ringpaxos.RoleLearner
		if !global || r == 0 {
			roles |= ringpaxos.RoleAcceptor
		}
		peers[r] = ringpaxos.Peer{ID: nodeIDFor(p, r), Addr: addr, Roles: roles}
	}
	return peers
}
