package txn

import (
	"sync"
	"time"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// voteKey identifies one transaction's vote record.
type voteKey struct {
	client uint64
	seq    uint64
}

// ExchangerConfig wires an Exchanger into one replica.
type ExchangerConfig struct {
	// Self is the partition this replica belongs to.
	Self uint16
	// Send transmits a vote to a peer replica over the service plane
	// (typically node.Endpoint().Send).
	Send func(to transport.Addr, m *msg.TxnVote) error
	// Resolve returns the current replica addresses of a participant
	// partition, or nil when the partition is unknown. It may consult
	// mutable deployment state; votes travel outside the ordered planes,
	// so address staleness only delays the exchange, never corrupts it.
	Resolve func(part uint16) []transport.Addr
	// OwnVote looks up this replica's own recorded vote for a
	// transaction (the state machine's deterministic vote history), so
	// pull requests from peers that lost a vote can be answered even
	// long after the local exchange finished.
	OwnVote func(client, seq uint64) (byte, bool)
}

// resendEvery is how long an Exchange waits for remote votes before it
// re-pushes its own vote, with Want set, to the participants.
const resendEvery = 25 * time.Millisecond

// Exchanger swaps votes between the replicas of the participant
// partitions of a conditional transaction. Delivery order makes the
// exchange deadlock-free: a multi-partition KindCAS is only ever
// multicast on a single shared ring, so every participant delivers
// conflicting transactions in the same relative order and blocks on the
// same one at a time — there is no circular wait to construct.
//
// Votes are pushed once when a participant executes the transaction and
// re-pushed periodically with Want set, which doubles as a pull: any
// replica holding its own vote (live, or recovered and replaying)
// answers from its vote history. Received votes are transient
// soft-state — only a replica's OWN votes are deterministic (they are a
// pure function of the ordered command stream) and therefore eligible
// for snapshots; arrival timing of remote votes is not.
type Exchanger struct {
	cfg ExchangerConfig

	mu     sync.Mutex
	remote map[voteKey]map[uint16]byte
	order  []voteKey
	// arrived is closed, and replaced, whenever a remote vote lands: it
	// wakes every waiting Exchange without blocking the sender.
	arrived chan struct{}

	closeOnce sync.Once
	closed    chan struct{}
}

// remoteCap bounds the transient remote-vote table; old entries are
// evicted FIFO (a late vote for an evicted transaction is re-pulled on
// demand, so eviction only costs a round trip).
const remoteCap = 4096

// NewExchanger creates an exchanger for one replica.
func NewExchanger(cfg ExchangerConfig) *Exchanger {
	return &Exchanger{
		cfg:     cfg,
		remote:  make(map[voteKey]map[uint16]byte),
		arrived: make(chan struct{}),
		closed:  make(chan struct{}),
	}
}

// Close unblocks any Exchange in progress (it returns VoteWrongEpoch, the
// abort verdict) so replica teardown cannot deadlock on a vote that will
// never arrive.
func (ex *Exchanger) Close() {
	ex.closeOnce.Do(func() { close(ex.closed) })
}

// Handle processes an incoming TxnVote. It runs on the goroutine that
// received the vote, possibly concurrently with itself, and must not
// block: it deposits the sender's vote and, when the sender asked (Want),
// answers with this replica's own vote if the state machine has recorded
// one.
func (ex *Exchanger) Handle(env transport.Envelope) {
	tv, ok := env.Msg.(*msg.TxnVote)
	if !ok {
		return
	}
	k := voteKey{client: tv.ClientID, seq: tv.Seq}
	if tv.Part != ex.cfg.Self && tv.Vote != 0 {
		ex.mu.Lock()
		m := ex.remote[k]
		if m == nil {
			m = make(map[uint16]byte, 2)
			ex.remote[k] = m
			ex.order = append(ex.order, k)
			if len(ex.order) > remoteCap {
				delete(ex.remote, ex.order[0])
				ex.order = ex.order[1:]
			}
		}
		m[tv.Part] = tv.Vote
		close(ex.arrived)
		ex.arrived = make(chan struct{})
		ex.mu.Unlock()
	}
	if tv.Want && ex.cfg.OwnVote != nil {
		if v, ok := ex.cfg.OwnVote(tv.ClientID, tv.Seq); ok {
			_ = ex.cfg.Send(env.From, &msg.TxnVote{
				ClientID: tv.ClientID,
				Seq:      tv.Seq,
				Part:     ex.cfg.Self,
				Vote:     v,
			})
		}
	}
}

// Exchange swaps votes for transaction (client, seq) among parts and
// returns the combined verdict: the maximum vote code over all
// participants (VoteWrongEpoch > VoteMismatch > VoteOK). It blocks the
// ring loop that delivered the transaction until the verdict is
// decided; that loop forwarded the decision before delivering it, so the
// other participants learn the transaction and vote meanwhile.
//
// Determinism: the only early exit is a VoteWrongEpoch vote (own or
// received) — the maximum is already decided, so replicas that exit
// early and replicas that see the full vector compute the same verdict.
// A VoteMismatch must wait for the full vector: exiting early on it
// could let two replicas of the same partition diverge between "failed"
// and "wrong epoch" verdicts. Votes are never synthesized from liveness
// or topology observations, which are wall-clock dependent; if a
// participant is truly gone and can never answer, the exchange stalls
// until Close (teardown) aborts it — safety over liveness.
//
//mrp:deterministic
func (ex *Exchanger) Exchange(client, seq uint64, parts []uint16, own byte) byte {
	k := voteKey{client: client, seq: seq}
	ex.push(k, parts, own, true)
	if own == VoteWrongEpoch {
		return VoteWrongEpoch
	}
	repush := func() { ex.push(k, parts, own, true) }
	for {
		verdict, done, arrived := ex.tally(k, parts, own)
		if done {
			return verdict
		}
		if !ex.await(arrived, repush) {
			return VoteWrongEpoch
		}
	}
}

// await blocks until a vote lands after the tally that returned arrived,
// calling repush every resendEvery meanwhile. It reports false once the
// exchanger closes. Its clock decides only when a vote is sent again,
// never what a verdict is, so it sits outside deterministic scope.
//
//mrp:nondeterministic
func (ex *Exchanger) await(arrived <-chan struct{}, repush func()) bool {
	t := time.NewTimer(resendEvery)
	defer t.Stop()
	for {
		select {
		case <-arrived:
			return true
		case <-ex.closed:
			return false
		case <-t.C:
			repush()
			t.Reset(resendEvery)
		}
	}
}

// tally combines the votes collected so far. done is true when every
// participant has voted, or as soon as any vote is VoteWrongEpoch.
// Otherwise arrived fires on the next vote to land after this tally.
func (ex *Exchanger) tally(k voteKey, parts []uint16, own byte) (verdict byte, done bool, arrived <-chan struct{}) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	verdict = own
	complete := true
	for _, p := range parts {
		if p == ex.cfg.Self {
			continue
		}
		v, ok := ex.remote[k][p]
		if !ok {
			complete = false
			continue
		}
		if v > verdict {
			verdict = v
		}
	}
	if verdict == VoteWrongEpoch {
		return VoteWrongEpoch, true, nil
	}
	return verdict, complete, ex.arrived
}

// push sends this replica's vote to every replica of every other
// participant. want asks receivers to answer with their own vote.
func (ex *Exchanger) push(k voteKey, parts []uint16, own byte, want bool) {
	for _, p := range parts {
		if p == ex.cfg.Self {
			continue
		}
		for _, addr := range ex.cfg.Resolve(p) {
			_ = ex.cfg.Send(addr, &msg.TxnVote{
				ClientID: k.client,
				Seq:      k.seq,
				Part:     ex.cfg.Self,
				Vote:     own,
				Want:     want,
			})
		}
	}
}
