// Package recovery implements Multi-Ring Paxos's recovery protocol
// (Section 5 of the paper): coordinated log trimming between replicas and
// acceptors, and checkpoint-based replica recovery.
//
// Trimming (Section 5.2): periodically, the coordinator of a multicast
// group asks the replicas subscribing to the group for the highest
// consensus instance each has durably checkpointed (k[x]_p). After a
// quorum Q_T of answers it computes K[x]_T = min over the quorum
// (Predicate 2) and commands the ring's acceptors to trim their logs up to
// K[x]_T.
//
// Replica recovery: a recovering replica contacts the replicas of its
// partition, waits for a recovery quorum Q_R of checkpoint identifiers
// (CkptQuery/CkptReply), picks the most up-to-date one (Predicate 3),
// transfers it (CkptFetch/CkptData) if it beats the local checkpoint, and
// installs it. The checkpoint's tuple k_p converts into per-ring delivery
// start points (StartInstances: k[x] + 1 for each subscribed group x), at
// which the replica rejoins its rings; each ring then replays the decided
// suffix from the acceptors. Because Q_T and Q_R intersect, K_T <= K_R
// (Predicates 4-5): the instances after the best checkpoint are still in
// the acceptor logs.
package recovery

import (
	"sync"
	"time"

	"mrp/internal/msg"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// TrimConfig parametrizes a trim coordinator for one ring.
type TrimConfig struct {
	// Ring is the multicast group whose log is being trimmed.
	Ring msg.RingID
	// Endpoint sends queries and trim commands (typically the ring
	// coordinator's node endpoint).
	Endpoint transport.Endpoint
	// Replicas are the addresses of the replicas subscribing to the ring.
	Replicas []transport.Addr
	// Acceptors are the addresses of the ring's acceptors.
	Acceptors []transport.Addr
	// Quorum is |Q_T| (default: majority of Replicas). It must be chosen
	// so that it intersects every recovery quorum Q_R.
	Quorum int
	// Interval between trim rounds.
	Interval time.Duration
}

// TrimCoordinator runs the trimming protocol. Wire HandleReply into the
// ring process's Aux handler on the coordinator's node so TrimReply
// messages reach it.
type TrimCoordinator struct {
	cfg TrimConfig

	mu       sync.Mutex
	seq      uint64
	replies  map[msg.NodeID]msg.Instance
	lastTrim msg.Instance
	rounds   uint64
	trims    uint64
	onTrim   func(msg.Instance)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewTrimCoordinator creates a trim coordinator.
func NewTrimCoordinator(cfg TrimConfig) *TrimCoordinator {
	if cfg.Quorum <= 0 {
		cfg.Quorum = len(cfg.Replicas)/2 + 1
	}
	return &TrimCoordinator{
		cfg:     cfg,
		replies: make(map[msg.NodeID]msg.Instance),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// OnTrim registers a hook invoked with K[x]_T after each trim command
// (used by the Figure 8 experiment to mark the timeline). Must be set
// before Start.
func (tc *TrimCoordinator) OnTrim(fn func(msg.Instance)) { tc.onTrim = fn }

// Trims returns how many trim commands were issued.
func (tc *TrimCoordinator) Trims() uint64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.trims
}

// LastTrim returns the highest K[x]_T commanded so far.
func (tc *TrimCoordinator) LastTrim() msg.Instance {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.lastTrim
}

// Start begins periodic trim rounds.
func (tc *TrimCoordinator) Start() {
	go tc.run()
}

// Stop terminates the coordinator.
func (tc *TrimCoordinator) Stop() {
	tc.stopOnce.Do(func() { close(tc.stop) })
	<-tc.done
}

func (tc *TrimCoordinator) run() {
	defer close(tc.done)
	ticker := time.NewTicker(tc.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			tc.round()
		case <-tc.stop:
			return
		}
	}
}

// round starts a new query round, discarding stale replies.
func (tc *TrimCoordinator) round() {
	tc.mu.Lock()
	tc.seq++
	seq := tc.seq
	tc.replies = make(map[msg.NodeID]msg.Instance)
	tc.rounds++
	tc.mu.Unlock()
	for _, addr := range tc.cfg.Replicas {
		_ = tc.cfg.Endpoint.Send(addr, &msg.TrimQuery{Ring: tc.cfg.Ring, Seq: seq})
	}
}

// HandleReply ingests a TrimReply; once a quorum Q_T has answered, it
// computes K[x]_T (Predicate 2) and commands the acceptors to trim.
func (tc *TrimCoordinator) HandleReply(env transport.Envelope) {
	m, ok := env.Msg.(*msg.TrimReply)
	if !ok || m.Ring != tc.cfg.Ring {
		return
	}
	tc.mu.Lock()
	if m.Seq != tc.seq {
		tc.mu.Unlock()
		return // stale round
	}
	tc.replies[m.Replica] = m.SafeInstance
	if len(tc.replies) < tc.cfg.Quorum {
		tc.mu.Unlock()
		return
	}
	// K[x]_T = min over the quorum: every quorum member has checkpointed
	// at least up to K, so trimming below K loses nothing any of them
	// might need (Predicate 2).
	var k msg.Instance
	first := true
	for _, safe := range tc.replies {
		if first || safe < k {
			k = safe
			first = false
		}
	}
	if k <= tc.lastTrim {
		tc.mu.Unlock()
		return
	}
	tc.lastTrim = k
	tc.trims++
	onTrim := tc.onTrim
	tc.replies = make(map[msg.NodeID]msg.Instance)
	tc.mu.Unlock()
	for _, addr := range tc.cfg.Acceptors {
		_ = tc.cfg.Endpoint.Send(addr, &msg.TrimCmd{Ring: tc.cfg.Ring, UpTo: k})
	}
	if onTrim != nil {
		onTrim(k)
	}
}

// RecoverConfig parametrizes replica recovery.
type RecoverConfig struct {
	// Endpoint is a dedicated endpoint for the recovery conversation (not
	// yet wired to a router).
	Endpoint transport.Endpoint
	// Peers are the other replicas of the recovering replica's partition.
	// Only replicas in the same partition evolve through the same sequence
	// of states, so only their checkpoints are installable (Section 5.2).
	Peers []transport.Addr
	// Quorum is |Q_R| (default: majority of Peers+self, i.e. len(Peers)/2+1
	// when the recovering replica counts itself).
	Quorum int
	// Local is the recovering replica's own checkpoint store (may hold an
	// older checkpoint that avoids a state transfer if fresh enough).
	Local *storage.CheckpointStore
	// Timeout bounds the whole recovery conversation.
	Timeout time.Duration
	// RetryEvery re-sends queries to unresponsive peers.
	RetryEvery time.Duration
}

// Result reports how a recovery concluded.
type Result struct {
	// Checkpoint is the state to install (zero-valued if none was found
	// anywhere, i.e. a cold start).
	Checkpoint storage.Checkpoint
	// Found reports whether any checkpoint (local or remote) was found.
	Found bool
	// Transferred reports whether a remote state transfer happened.
	Transferred bool
}

// Recover runs the recovering-replica protocol: gather checkpoint
// identifiers from a quorum Q_R, select the most up-to-date (Predicate 3),
// and fetch it if it beats the local checkpoint.
func Recover(cfg RecoverConfig) (Result, error) {
	if cfg.Quorum <= 0 {
		cfg.Quorum = (len(cfg.Peers)+1)/2 + 1
		if cfg.Quorum > len(cfg.Peers) {
			cfg.Quorum = len(cfg.Peers)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 200 * time.Millisecond
	}
	var res Result
	if cfg.Local != nil {
		if ck, ok := cfg.Local.Load(); ok {
			res.Checkpoint = ck
			res.Found = true
		}
	}
	if len(cfg.Peers) == 0 {
		return res, nil
	}

	query := func(seq uint64) {
		for _, p := range cfg.Peers {
			_ = cfg.Endpoint.Send(p, &msg.CkptQuery{Seq: seq})
		}
	}
	const querySeq = 1
	query(querySeq)

	deadline := time.NewTimer(cfg.Timeout)
	defer deadline.Stop()
	retry := time.NewTicker(cfg.RetryEvery)
	defer retry.Stop()

	// Phase 1: collect checkpoint identifiers from Q_R peers.
	tuples := make(map[msg.NodeID][]msg.RingInstance)
	var bestPeer transport.Addr
	var bestTuple []msg.RingInstance
	gotQuorum := false
	for !gotQuorum {
		select {
		case env, ok := <-cfg.Endpoint.Inbox():
			if !ok {
				return res, transport.ErrClosed
			}
			reply, isReply := env.Msg.(*msg.CkptReply)
			if !isReply || reply.Seq != querySeq {
				continue
			}
			tuples[reply.Replica] = reply.Tuple
			// An empty tuple means the peer has never checkpointed; it
			// still counts toward the quorum but is not a fetch candidate
			// (it has no state to transfer — fetching would hang).
			if len(reply.Tuple) > 0 && (bestTuple == nil || storage.TupleLE(bestTuple, reply.Tuple)) {
				bestTuple = reply.Tuple
				bestPeer = env.From
			}
			if len(tuples) >= cfg.Quorum {
				gotQuorum = true
			}
		case <-retry.C:
			query(querySeq)
		case <-deadline.C:
			return res, ErrNoQuorum
		}
	}

	// Predicate 3: the selected checkpoint dominates every quorum member's.
	if bestTuple == nil || (res.Found && storage.TupleLE(bestTuple, res.Checkpoint.Tuple)) {
		return res, nil // local checkpoint is at least as fresh
	}

	// Phase 2: transfer the state from the best peer.
	const fetchSeq = 2
	_ = cfg.Endpoint.Send(bestPeer, &msg.CkptFetch{Seq: fetchSeq})
	for {
		select {
		case env, ok := <-cfg.Endpoint.Inbox():
			if !ok {
				return res, transport.ErrClosed
			}
			data, isData := env.Msg.(*msg.CkptData)
			if !isData || data.Seq != fetchSeq {
				continue
			}
			res.Checkpoint = storage.Checkpoint{Tuple: data.Tuple, State: data.State}
			res.Found = true
			res.Transferred = true
			return res, nil
		case <-retry.C:
			_ = cfg.Endpoint.Send(bestPeer, &msg.CkptFetch{Seq: fetchSeq})
		case <-deadline.C:
			return res, ErrNoQuorum
		}
	}
}

// StartInstances converts a checkpoint tuple into per-ring delivery start
// points (k[x] + 1) for rejoining the rings.
func StartInstances(tuple []msg.RingInstance) map[msg.RingID]msg.Instance {
	out := make(map[msg.RingID]msg.Instance, len(tuple))
	for _, e := range tuple {
		out[e.Ring] = e.Instance + 1
	}
	return out
}

// ErrNoQuorum reports that recovery could not assemble a quorum in time.
var ErrNoQuorum = errQuorum{}

type errQuorum struct{}

func (errQuorum) Error() string { return "recovery: no quorum of checkpoint replies" }
