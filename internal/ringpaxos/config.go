// Package ringpaxos implements Ring Paxos, the atomic broadcast substrate
// of Multi-Ring Paxos (Section 4 of the paper), without relying on
// network-level optimizations such as IP-multicast: all communication
// follows a unidirectional TCP-like ring overlay.
//
// Roles follow Paxos: proposers submit values, acceptors vote, learners
// deliver. One acceptor acts as coordinator. A proposed value circulates
// the ring until it reaches the coordinator, which assigns it a consensus
// instance and emits a combined Phase 2A/2B message carrying its own vote.
// Each subsequent acceptor adds its vote; the last acceptor in the ring
// replaces the message with a Decision once a majority has voted, and the
// decision keeps circulating until every ring member has received it.
// Phase 1 is pre-executed for windows of instances, and consensus instances
// can be decided as "skips" for rate leveling (Section 4).
package ringpaxos

import (
	"errors"
	"fmt"
	"time"

	"mrp/internal/msg"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// Role is a bitmask of the Paxos roles a ring member plays. The paper's
// deployments combine roles freely (e.g. Figure 3 runs three processes
// that are all proposers, acceptors, and learners).
type Role uint8

// Role bits.
const (
	RoleProposer Role = 1 << iota
	RoleAcceptor
	RoleLearner
)

// Has reports whether r includes all bits of q.
func (r Role) Has(q Role) bool { return r&q == q }

// String implements fmt.Stringer.
func (r Role) String() string {
	s := ""
	if r.Has(RoleProposer) {
		s += "P"
	}
	if r.Has(RoleAcceptor) {
		s += "A"
	}
	if r.Has(RoleLearner) {
		s += "L"
	}
	if s == "" {
		return "-"
	}
	return s
}

// Peer describes one ring member. Peers are listed in ring order: the
// successor of Peers[i] is Peers[(i+1) % len(Peers)].
type Peer struct {
	ID    msg.NodeID
	Addr  transport.Addr
	Roles Role
}

// Config parametrizes a ring process.
type Config struct {
	// Ring is the ring (= multicast group) identifier.
	Ring msg.RingID
	// Self is this process's node ID; it must appear in Peers.
	Self msg.NodeID
	// Peers lists all ring members in ring order.
	Peers []Peer
	// Coordinator is the initial coordinator's node ID (must be an
	// acceptor). Deployments name Peers[0]; only an explicit
	// Process.BecomeCoordinator call moves the role.
	Coordinator msg.NodeID
	// Log is the acceptor's stable storage; required when Self is an
	// acceptor.
	Log *storage.Log

	// BatchMaxBytes caps how many payload bytes the coordinator groups
	// into one consensus instance; 0 disables batching (one proposal per
	// instance, as in the Figure 3 baseline).
	//
	// This is ring-level batching: several proposals decided as one
	// consensus instance, paying one stable-storage write. It is
	// independent of transport-level write coalescing
	// (transport.BatchPolicy), which packs already-formed protocol
	// messages into one network packet and is configured on the endpoint
	// (tcpnet.WithBatch / netsim.WithBatch), not here.
	BatchMaxBytes int
	// BatchDelay bounds how long a pending proposal waits for its batch
	// to be cut. On a sync-mode log the coordinator cuts a batch whenever
	// its log writer is idle, so a batch holds exactly what arrived while
	// the previous record committed, and BatchDelay only matters if the
	// writer never drains. In-memory and async logs have no writer and
	// commit inline (an async write waits only when the device's
	// write-back buffer is full), so there BatchDelay is the batching
	// window itself.
	BatchDelay time.Duration

	// phase1Window is how many consensus instances each pre-executed
	// Phase 1 covers (default 1<<20). Tests shrink it to force window
	// extensions.
	phase1Window int

	// SkipInterval is the rate-leveling interval Δ: every Δ the
	// coordinator compares the number of instances started in the interval
	// against the expected count (SkipRate x Δ) and proposes skips for the
	// difference. Zero disables rate leveling.
	SkipInterval time.Duration
	// SkipRate is λ expressed as instances per second (the paper gives λ
	// per interval; a per-second rate keeps the semantics stable when
	// experiments compress Δ).
	SkipRate int

	// RetryTimeout bounds how long the coordinator waits for a decision
	// before re-proposing, and how long a learner tolerates a delivery gap
	// before requesting retransmission.
	RetryTimeout time.Duration

	// StartInstance, when > 0, makes the learner begin delivery at this
	// instance instead of 1 (used by recovering replicas that restored a
	// checkpoint covering the prefix).
	StartInstance msg.Instance

	// Aux receives ring-scoped messages the process itself does not consume
	// (TrimQuery arriving at a replica, TrimReply arriving at the trim
	// coordinator — Section 5.2). It runs on the event loop and must not
	// block.
	Aux func(transport.Envelope)
}

// Decided is one delivered consensus instance. Skip values are delivered
// too (with Value.Skip set): the deterministic merge layer needs them to
// advance its per-ring instance counters, but they carry no payloads.
type Decided struct {
	Ring     msg.RingID
	Instance msg.Instance
	Value    msg.Value
}

// validate checks the configuration and computes derived indexes.
func (c *Config) validate() (selfIdx int, err error) {
	if len(c.Peers) == 0 {
		return 0, errors.New("ringpaxos: no peers")
	}
	selfIdx = -1
	coordIdx := -1
	acceptors := 0
	seen := make(map[msg.NodeID]bool, len(c.Peers))
	for i, p := range c.Peers {
		if seen[p.ID] {
			return 0, fmt.Errorf("ringpaxos: duplicate peer ID %d", p.ID)
		}
		seen[p.ID] = true
		if p.ID == c.Self {
			selfIdx = i
		}
		if p.ID == c.Coordinator {
			coordIdx = i
			if !p.Roles.Has(RoleAcceptor) {
				return 0, fmt.Errorf("ringpaxos: coordinator %d is not an acceptor", p.ID)
			}
		}
		if p.Roles.Has(RoleAcceptor) {
			acceptors++
		}
	}
	if selfIdx < 0 {
		return 0, fmt.Errorf("ringpaxos: self %d not in peers", c.Self)
	}
	if coordIdx < 0 {
		return 0, fmt.Errorf("ringpaxos: coordinator %d not in peers", c.Coordinator)
	}
	if acceptors == 0 {
		return 0, errors.New("ringpaxos: no acceptors")
	}
	self := c.Peers[selfIdx]
	if self.Roles.Has(RoleAcceptor) && c.Log == nil {
		return 0, errors.New("ringpaxos: acceptor requires a storage log")
	}
	return selfIdx, nil
}

// withDefaults fills zero fields with defaults.
func (c *Config) withDefaults() {
	if c.phase1Window <= 0 {
		c.phase1Window = 1 << 20
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 200 * time.Millisecond
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = 2 * time.Millisecond
	}
}

// majorityOf returns the quorum size for n acceptors.
func majorityOf(n int) int { return n/2 + 1 }

// ballotFor builds a ballot owned by the coordinator at ring index idx:
// ballots are partitioned across ring positions so two coordinators never
// share one.
func ballotFor(round int, idx, n int) msg.Ballot {
	return msg.Ballot(round*n + idx + 1)
}

// coordIdxOf recovers the ring index of the coordinator owning a ballot.
func coordIdxOf(b msg.Ballot, n int) int {
	return int((b - 1) % msg.Ballot(n))
}
