package ringpaxos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mrp/internal/msg"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// Process is one ring member. All protocol state is owned by a single
// event-loop goroutine; interaction happens through channels (proposals,
// the control queue) and the decision sink, which the loop calls.
type Process struct {
	cfg     Config
	ep      transport.Endpoint
	selfIdx int
	n       int
	nAcc    int
	maj     int

	in        chan transport.Envelope
	proposeCh chan []byte
	skipReqCh chan struct{}
	ctl       chan func()
	out       chan Decided
	stop      chan struct{}
	done      chan struct{}
	stopOnce  sync.Once

	// Coordinator state (loop-owned).
	isCoord      bool
	ballot       msg.Ballot
	round        int
	winTo        msg.Instance // exclusive upper bound of the promised window
	winPending   bool         // a Phase 1 is in flight
	winPendTo    msg.Instance
	winPendSince time.Time
	next         msg.Instance // next free instance
	reserved     map[msg.Instance]bool
	pending      []msg.Entry
	pendingBytes int
	inflight     map[msg.Instance]*flight
	intervalOps  int                  // instances started in the current Δ interval
	seen         map[propKey]struct{} // proposal dedup (bounded FIFO)
	seenQ        []propKey

	// Proposer state (loop-owned). proposeSeq starts at the wall clock's
	// nanoseconds, so a restarted process never reuses a (proposer, seq)
	// pair of its previous incarnation, which the coordinator's dedup
	// would swallow.
	proposeSeq  uint64
	outstanding map[uint64]*outProp

	// Ring healing: peers marked down are skipped when forwarding.
	down map[msg.NodeID]bool

	// Acceptor state (loop-owned). writer is nil unless the log is in a
	// sync mode; writing counts continuations pushed to it and not yet
	// run, so zero means the log is idle.
	promised msg.Ballot
	writer   *logWriter
	writing  int

	// Learner state (loop-owned).
	nextDeliver  msg.Instance
	decidedBuf   map[msg.Instance]msg.Value
	maxSeen      msg.Instance
	lastProgress msg.Instance
	retransAcc   int // round-robin acceptor cursor for LearnReqs

	sink     func(Decided) // replaces out when set (see SetSink)
	started  atomic.Bool
	skipWant atomic.Uint64 // highest skip bound a learner asked for

	stats Stats
}

// flight tracks one undecided instance proposed by this coordinator.
type flight struct {
	value   msg.Value
	sentAt  time.Time
	decided bool
}

// propKey identifies a proposal for coordinator-side deduplication.
type propKey struct {
	proposer msg.NodeID
	seq      uint64
}

// outProp tracks a local proposal not yet observed as learned, for
// proposer-side retransmission over lossy links.
type outProp struct {
	payload []byte
	sentAt  time.Time
}

// seenCap bounds the coordinator's proposal dedup memory.
const seenCap = 1 << 16

// Stats counts protocol activity; all fields are atomically updated and
// safe to read concurrently. BytesIn/BytesOut approximate the process's
// network processing volume and serve as the CPU proxy for Figure 3's
// coordinator-CPU graph.
type Stats struct {
	MsgsIn      atomic.Uint64
	MsgsOut     atomic.Uint64
	BytesIn     atomic.Uint64
	BytesOut    atomic.Uint64
	Proposals   atomic.Uint64
	Instances   atomic.Uint64
	Skips       atomic.Uint64
	Decisions   atomic.Uint64
	Delivered   atomic.Uint64
	Retransmits atomic.Uint64
}

// New creates a ring process attached to the endpoint. The process does not
// receive from the endpoint: feed ring-scoped envelopes into In() via a
// transport.Router.
func New(cfg Config, ep transport.Endpoint) (*Process, error) {
	selfIdx, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	cfg.withDefaults()
	nAcc := 0
	for _, p := range cfg.Peers {
		if p.Roles.Has(RoleAcceptor) {
			nAcc++
		}
	}
	start := msg.Instance(1)
	if cfg.StartInstance > 0 {
		start = cfg.StartInstance
	}
	p := &Process{
		cfg:         cfg,
		ep:          ep,
		selfIdx:     selfIdx,
		n:           len(cfg.Peers),
		nAcc:        nAcc,
		maj:         majorityOf(nAcc),
		in:          make(chan transport.Envelope, 4096),
		proposeCh:   make(chan []byte, 1024),
		skipReqCh:   make(chan struct{}, 1),
		ctl:         make(chan func(), 16),
		out:         make(chan Decided, 8192),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		reserved:    make(map[msg.Instance]bool),
		inflight:    make(map[msg.Instance]*flight),
		seen:        make(map[propKey]struct{}),
		proposeSeq:  uint64(time.Now().UnixNano()),
		outstanding: make(map[uint64]*outProp),
		down:        make(map[msg.NodeID]bool),
		next:        1,
		nextDeliver: start,
		decidedBuf:  make(map[msg.Instance]msg.Value),
	}
	if cfg.Log != nil && cfg.Log.Mode().IsSync() {
		p.writer = newLogWriter(cfg.Log)
	}
	return p, nil
}

// In returns the channel the node's router feeds ring-scoped messages into.
func (p *Process) In() chan<- transport.Envelope { return p.in }

// Decisions returns the ordered, gap-free stream of decided instances
// (including skips) for this ring, starting at StartInstance; it holds
// 8192 and carries nothing once a sink is set.
func (p *Process) Decisions() <-chan Decided { return p.out }

// SetSink makes the event loop call fn with every decided instance, in
// order and gap-free, instead of queuing it on Decisions. fn runs on the
// loop after the decision has been forwarded to the successor, so a sink
// that blocks delays this member's later messages but never another
// member's learning of this instance. It panics after Start.
func (p *Process) SetSink(fn func(Decided)) {
	if p.started.Load() {
		panic("ringpaxos: SetSink after Start")
	}
	p.sink = fn
}

// Stats returns the process's counters.
func (p *Process) Stats() *Stats { return &p.stats }

// Ring returns the ring identifier.
func (p *Process) Ring() msg.RingID { return p.cfg.Ring }

// Start launches the event loop. If this process is the configured
// coordinator it immediately pre-executes Phase 1 for the first window.
func (p *Process) Start() {
	p.started.Store(true)
	go p.run()
}

// Stop terminates the event loop and the log writer. It does not close the
// endpoint.
func (p *Process) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// Propose multicasts a payload to this ring's group. If this process is not
// the coordinator, the proposal is forwarded along the ring until it
// reaches it (Section 4). Propose never blocks on consensus; delivery
// happens through the Decisions stream.
func (p *Process) Propose(payload []byte) error {
	if !p.self().Roles.Has(RoleProposer) {
		return fmt.Errorf("ringpaxos: node %d is not a proposer", p.cfg.Self)
	}
	select {
	case p.proposeCh <- payload:
		return nil
	case <-p.stop:
		return transport.ErrClosed
	}
}

// RequestSkip asks the ring's coordinator for a skip instance that brings
// the ring's next free instance up to to (learner feedback for rate
// leveling; see msg.SkipReq). It never blocks; concurrent requests
// coalesce into the highest bound.
func (p *Process) RequestSkip(to msg.Instance) {
	for {
		cur := p.skipWant.Load()
		if uint64(to) <= cur || p.skipWant.CompareAndSwap(cur, uint64(to)) {
			break
		}
	}
	select {
	case p.skipReqCh <- struct{}{}:
	default:
	}
}

// BecomeCoordinator makes this process take over coordination with a fresh,
// higher ballot, pre-executing Phase 1. Called by the ring manager when the
// coordination service elects a new coordinator.
func (p *Process) BecomeCoordinator() {
	select {
	case p.ctl <- func() { p.becomeCoordinator() }:
	case <-p.stop:
	}
}

func (p *Process) self() Peer { return p.cfg.Peers[p.selfIdx] }

// succ returns the next live ring member after this one (ring healing:
// crashed members, reported via SetPeerDown by the ring manager, are
// skipped so circulation continues around them).
func (p *Process) succ() Peer {
	for d := 1; d < p.n; d++ {
		peer := p.cfg.Peers[(p.selfIdx+d)%p.n]
		if !p.down[peer.ID] {
			return peer
		}
	}
	return p.self()
}

func (p *Process) succAddr() transport.Addr { return p.succ().Addr }

func (p *Process) succID() msg.NodeID { return p.succ().ID }

// lastAcceptorIdx returns the ring index of the last live acceptor a
// Phase 2 message reaches when circulating from the coordinator at
// coordIdx.
func (p *Process) lastAcceptorIdx(coordIdx int) int {
	last := coordIdx
	for d := 1; d < p.n; d++ {
		i := (coordIdx + d) % p.n
		peer := p.cfg.Peers[i]
		if peer.Roles.Has(RoleAcceptor) && !p.down[peer.ID] {
			last = i
		}
	}
	return last
}

// SetPeerDown marks a ring member as crashed (or recovered), healing the
// ring overlay around it. Failure detection itself lives in the ring
// manager, which watches the coordination service's ephemeral nodes.
func (p *Process) SetPeerDown(id msg.NodeID, isDown bool) {
	select {
	case p.ctl <- func() {
		if isDown {
			p.down[id] = true
		} else {
			delete(p.down, id)
		}
	}:
	case <-p.stop:
	}
}

func (p *Process) send(to transport.Addr, m msg.Message) {
	p.stats.MsgsOut.Add(1)
	p.stats.BytesOut.Add(uint64(m.Size()))
	_ = p.ep.Send(to, m)
}

func (p *Process) forward(m msg.Message) {
	if p.n > 1 {
		p.send(p.succAddr(), m)
	}
}

// run is the event loop.
func (p *Process) run() {
	defer close(p.done)
	var committed <-chan afterCommit
	if p.writer != nil {
		go p.writer.run(p.stop)
		defer func() { <-p.writer.exited }() // invariant (d)
		committed = p.writer.done
	}
	if p.cfg.Coordinator == p.cfg.Self {
		// Take coordination before consuming any input so local proposals
		// are never needlessly routed around the ring.
		p.becomeCoordinator()
	}
	batch := time.NewTicker(p.cfg.BatchDelay)
	defer batch.Stop()
	retry := time.NewTicker(p.cfg.RetryTimeout)
	defer retry.Stop()
	var skipC <-chan time.Time
	if p.cfg.SkipInterval > 0 {
		skip := time.NewTicker(p.cfg.SkipInterval)
		defer skip.Stop()
		skipC = skip.C
	}
	for {
		select {
		case env := <-p.in:
			p.stats.MsgsIn.Add(1)
			p.stats.BytesIn.Add(uint64(env.Msg.Size()))
			p.handle(env)
		case payload := <-p.proposeCh:
			p.handlePropose(payload)
		case <-p.skipReqCh:
			p.handleSkipReq(&msg.SkipReq{Ring: p.cfg.Ring, To: msg.Instance(p.skipWant.Load())})
		case fn := <-p.ctl:
			fn()
		case <-batch.C:
			if p.isCoord && len(p.pending) > 0 {
				p.flush()
			}
		case <-skipC:
			p.skipTick()
		case <-retry.C:
			p.retryTick()
		case c := <-committed:
			p.writing--
			p.complete(c)
		case <-p.stop:
			return
		}
		// Cut a batch whenever the log is idle: the batch is exactly what
		// arrived while the previous instance's record was committing. The
		// ticker above only bounds the wait if the writer never drains.
		if p.writer != nil && p.writing == 0 && p.isCoord && len(p.pending) > 0 {
			p.flush()
		}
	}
}

func (p *Process) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case *msg.Proposal:
		p.handleProposal(m)
	case *msg.Phase1B:
		p.handlePhase1B(m)
	case *msg.Phase2:
		p.handlePhase2(m)
	case *msg.Decision:
		p.handleDecision(m, false)
	case *msg.LearnReq:
		p.handleLearnReq(m, env.From)
	case *msg.LearnResp:
		p.handleLearnResp(m)
	case *msg.SkipReq:
		p.handleSkipReq(m)
	case *msg.TrimCmd:
		if p.self().Roles.Has(RoleAcceptor) && p.cfg.Log != nil {
			p.cfg.Log.Trim(m.UpTo)
		}
	case *msg.TrimQuery, *msg.TrimReply:
		if p.cfg.Aux != nil {
			p.cfg.Aux(env)
		}
	}
}

// --- Proposer / coordinator ---

func (p *Process) handlePropose(payload []byte) {
	p.stats.Proposals.Add(1)
	p.proposeSeq++
	seq := p.proposeSeq
	if p.self().Roles.Has(RoleLearner) {
		// Track until observed as learned so it can be retransmitted over
		// lossy links; the coordinator deduplicates retransmissions.
		p.outstanding[seq] = &outProp{payload: payload, sentAt: time.Now()}
	}
	p.submit(msg.Entry{Proposer: p.cfg.Self, Seq: seq, Data: payload})
}

// submit routes a proposal entry: enqueue locally when coordinating,
// otherwise circulate it along the ring.
func (p *Process) submit(e msg.Entry) {
	if p.isCoord {
		p.enqueue(e)
		return
	}
	p.forward(&msg.Proposal{
		Ring:       p.cfg.Ring,
		ProposerID: e.Proposer,
		Seq:        e.Seq,
		Payload:    e.Data,
	})
}

func (p *Process) handleProposal(m *msg.Proposal) {
	if p.isCoord {
		p.enqueue(msg.Entry{Proposer: m.ProposerID, Seq: m.Seq, Data: m.Payload})
		return
	}
	p.forward(m)
}

func (p *Process) enqueue(e msg.Entry) {
	k := propKey{proposer: e.Proposer, seq: e.Seq}
	if _, dup := p.seen[k]; dup {
		return
	}
	p.seen[k] = struct{}{}
	p.seenQ = append(p.seenQ, k)
	if len(p.seenQ) > seenCap {
		delete(p.seen, p.seenQ[0])
		p.seenQ = p.seenQ[1:]
	}
	p.pending = append(p.pending, e)
	p.pendingBytes += len(e.Data)
	if p.cfg.BatchMaxBytes == 0 || p.pendingBytes >= p.cfg.BatchMaxBytes {
		p.flush()
	}
}

// flush starts consensus instances for the pending proposals: one instance
// per proposal with batching disabled, or one instance per BatchMaxBytes
// batch otherwise.
func (p *Process) flush() {
	if !p.isCoord {
		return
	}
	for len(p.pending) > 0 {
		if !p.ensureWindow() {
			return // stalled until Phase 1 extends the window
		}
		take := 1
		if p.cfg.BatchMaxBytes > 0 {
			size := 0
			take = 0
			for take < len(p.pending) {
				if take > 0 && size+len(p.pending[take].Data) > p.cfg.BatchMaxBytes {
					break
				}
				size += len(p.pending[take].Data)
				take++
			}
		}
		// Copy: the batch outlives this flush inside inflight/Phase2
		// messages, while the pending queue's backing array keeps growing.
		batch := append([]msg.Entry(nil), p.pending[:take]...)
		p.pending = p.pending[take:]
		for i := range batch {
			p.pendingBytes -= len(batch[i].Data)
		}
		p.startInstance(msg.Value{Batch: batch})
	}
	if len(p.pending) == 0 {
		p.pending = nil
	}
}

// ensureWindow makes sure at least one instance is available in the
// promised window, requesting a Phase 1 extension when the window runs low.
// It returns false when the coordinator must wait for Phase 1 to complete.
func (p *Process) ensureWindow() bool {
	if p.winTo == 0 { // not yet coordinator-initialized
		return false
	}
	low := p.winTo - msg.Instance(p.cfg.phase1Window/4)
	if p.next >= low && !p.winPending {
		p.sendPhase1(p.winTo, p.winTo+msg.Instance(p.cfg.phase1Window))
	}
	return p.next < p.winTo
}

// startInstance assigns the next free instance to a value and emits the
// Phase 2A/2B message with the coordinator's own vote.
func (p *Process) startInstance(v msg.Value) {
	for p.reserved[p.next] {
		p.next++
	}
	inst := p.next
	if v.Skip {
		p.next = v.SkipTo
	} else {
		p.next++
	}
	p.intervalOps++
	p.stats.Instances.Add(1)
	p.propose2(inst, v)
}

// propose2 persists the coordinator's vote and, once it is durable,
// circulates Phase 2A/2B at the current ballot. It tracks the instance in
// inflight, where retryTick finds it to re-propose.
func (p *Process) propose2(inst msg.Instance, v msg.Value) {
	n, err := p.cfg.Log.Stage(inst, storage.Record{Rnd: p.ballot, VRnd: p.ballot, Value: v})
	if err != nil {
		delete(p.inflight, inst) // instance already trimmed: long decided
		return
	}
	if _, ok := p.inflight[inst]; !ok {
		p.inflight[inst] = &flight{value: v, sentAt: time.Now()}
	}
	p.persist(afterCommit{n: n, m: &msg.Phase2{Ring: p.cfg.Ring, Ballot: p.ballot, Instance: inst, Value: v, Votes: 1}})
}

// stepDown stops coordinating after observing a higher ballot from another
// coordinator. Pending proposals are pushed back into the ring so the new
// coordinator picks them up.
func (p *Process) stepDown() {
	if !p.isCoord {
		return
	}
	p.isCoord = false
	pending := p.pending
	p.pending = nil
	p.pendingBytes = 0
	for _, e := range pending {
		p.forward(&msg.Proposal{Ring: p.cfg.Ring, ProposerID: e.Proposer, Seq: e.Seq, Payload: e.Data})
	}
}

// becomeCoordinator adopts a fresh ballot and pre-executes Phase 1.
func (p *Process) becomeCoordinator() {
	if !p.self().Roles.Has(RoleAcceptor) {
		return
	}
	p.isCoord = true
	p.round++
	p.ballot = ballotFor(p.round, p.selfIdx, p.n)
	if p.promised < p.ballot {
		p.promised = p.ballot
	}
	// Start the window at the lowest instance that might be undecided:
	// everything below the local learner's delivery point is decided, and
	// everything at or below the log's low watermark is trimmed.
	from := p.nextDeliver
	if p.cfg.Log != nil {
		if lw := p.cfg.Log.LowWatermark(); lw+1 > from {
			from = lw + 1
		}
	}
	if p.next < from {
		p.next = from
	}
	p.winTo = 0
	p.sendPhase1(p.next, p.next+msg.Instance(p.cfg.phase1Window))
}

// sendPhase1 emits the circulating combined Phase 1A/1B message for
// instances [from, to).
func (p *Process) sendPhase1(from, to msg.Instance) {
	p.winPending = true
	p.winPendTo = to
	p.winPendSince = time.Now()
	m := &msg.Phase1B{
		Ring:     p.cfg.Ring,
		Ballot:   p.ballot,
		From:     from,
		To:       to,
		Promises: 1, // the coordinator's own promise
		Voted:    p.votedIn(from, to),
	}
	p.persist(afterCommit{n: promiseBytes, m: m})
}

// votedIn collects this acceptor's voted values in [from, to) for merging
// into a circulating Phase1B.
func (p *Process) votedIn(from, to msg.Instance) []msg.VotedValue {
	if p.cfg.Log == nil {
		return nil
	}
	var out []msg.VotedValue
	p.cfg.Log.Range(from, to, func(i msg.Instance, r storage.Record) {
		if r.VRnd > 0 {
			out = append(out, msg.VotedValue{Instance: i, VRnd: r.VRnd, Value: r.Value})
		}
	})
	return out
}

func (p *Process) handlePhase1B(m *msg.Phase1B) {
	owner := coordIdxOf(m.Ballot, p.n)
	if owner == p.selfIdx {
		// Our own Phase 1 message returned after the full circle (or a
		// stale one from a previous ballot of ours: consume either way).
		if p.isCoord && m.Ballot == p.ballot && int(m.Promises) >= p.maj {
			p.acceptWindow(m)
		}
		// Otherwise the retry ticker re-runs Phase 1 with a higher ballot.
		return
	}
	if m.Ballot > p.ballot && owner != p.selfIdx {
		p.stepDown() // another coordinator took over
	}
	if p.self().Roles.Has(RoleAcceptor) && m.Ballot >= p.promised {
		p.promised = m.Ballot
		c := *m
		c.Promises++
		c.Voted = append(append([]msg.VotedValue(nil), m.Voted...), p.votedIn(m.From, m.To)...)
		p.persist(afterCommit{n: promiseBytes, m: &c})
		return
	}
	p.forward(m)
}

// acceptWindow installs a promised window and re-proposes any values
// acceptors had voted for in it (Paxos safety across coordinator changes).
// Note that next is NOT advanced to m.From: window extensions are requested
// ahead of the instance frontier (at the window's 3/4 mark), and jumping
// would orphan the instances between the frontier and the old window edge —
// they would never be proposed and delivery would stall on the gap forever.
// becomeCoordinator positions next before the initial Phase 1 instead.
func (p *Process) acceptWindow(m *msg.Phase1B) {
	p.winPending = false
	p.winTo = m.To
	// Reduce merged votes: keep the highest-VRnd value per instance.
	highest := make(map[msg.Instance]msg.VotedValue)
	for _, vv := range m.Voted {
		if cur, ok := highest[vv.Instance]; !ok || vv.VRnd > cur.VRnd {
			highest[vv.Instance] = vv
		}
	}
	for inst, vv := range highest {
		if inst < p.nextDeliver {
			continue // already delivered: decided long ago
		}
		if _, ok := p.inflight[inst]; ok {
			continue // already being re-proposed
		}
		p.reserved[inst] = true
		p.stats.Instances.Add(1)
		p.propose2(inst, vv.Value)
	}
	p.flush()
}

// --- Acceptor ---

func (p *Process) handlePhase2(m *msg.Phase2) {
	owner := coordIdxOf(m.Ballot, p.n)
	if owner == p.selfIdx {
		// Our own Phase 2 came full circle without deciding (some acceptor
		// refused); the retry ticker will re-propose.
		return
	}
	if m.Ballot > p.ballot {
		p.stepDown()
	}
	// Any Phase 2 is a hint about the highest outstanding instance; it
	// feeds gap detection so even trailing losses trigger retransmission.
	p.noteSeen(m.Instance, m.Value)
	if p.lastAcceptorIdx(owner) == p.selfIdx && int(m.Votes) >= p.maj {
		// The majority already voted: the last acceptor converts the
		// message into a decision without adding (and persisting) its own
		// vote — the decision is backed by the majority's stable storage.
		p.decide(m.Instance, m.Value)
		return
	}
	if p.self().Roles.Has(RoleAcceptor) && m.Ballot >= p.promised {
		rec := storage.Record{Rnd: m.Ballot, VRnd: m.Ballot, Value: m.Value}
		if n, err := p.cfg.Log.Stage(m.Instance, rec); err == nil {
			c := *m
			c.Votes++
			p.persist(afterCommit{n: n, m: &c})
			return
		}
	}
	p.forward(m)
}

// decide originates a Decision at this (last) acceptor and processes it
// locally.
func (p *Process) decide(inst msg.Instance, v msg.Value) {
	p.stats.Decisions.Add(1)
	d := &msg.Decision{Ring: p.cfg.Ring, Instance: inst, Origin: p.cfg.Self, Value: v}
	p.handleDecision(d, true)
}

// --- Decisions and learning ---

// handleDecision forwards a decision before delivering it (see SetSink).
func (p *Process) handleDecision(d *msg.Decision, local bool) {
	fresh := p.learn(d.Instance, d.Value)
	if !local && !fresh {
		return // duplicate after a full circle: stop forwarding
	}
	if p.succID() != d.Origin && p.n > 1 {
		p.forward(d)
	}
	p.advance()
}

// learn records a decided instance, updates acceptor retransmission state
// and tracks inflight bookkeeping; advance delivers it. It reports whether
// the decision was new to this process.
func (p *Process) learn(inst msg.Instance, v msg.Value) bool {
	if inst < p.nextDeliver {
		return false
	}
	if _, dup := p.decidedBuf[inst]; dup {
		return false
	}
	if p.self().Roles.Has(RoleAcceptor) && p.cfg.Log != nil {
		p.cfg.Log.MarkDecided(inst, v)
	}
	if f, ok := p.inflight[inst]; ok {
		f.decided = true
		delete(p.inflight, inst)
	}
	delete(p.reserved, inst)
	p.noteSeen(inst, v)
	for i := range v.Batch {
		if v.Batch[i].Proposer == p.cfg.Self {
			delete(p.outstanding, v.Batch[i].Seq)
		}
	}
	p.decidedBuf[inst] = v
	return true
}

// noteSeen tracks the highest instance this process has heard of, for
// delivery-gap detection.
func (p *Process) noteSeen(inst msg.Instance, v msg.Value) {
	if inst > p.maxSeen {
		p.maxSeen = inst
	}
	if v.Skip && v.SkipTo > 0 && v.SkipTo-1 > p.maxSeen {
		p.maxSeen = v.SkipTo - 1
	}
}

// advance delivers contiguous decided instances to the sink, or to the
// Decisions stream when there is none.
func (p *Process) advance() {
	for {
		v, ok := p.decidedBuf[p.nextDeliver]
		if !ok {
			return
		}
		delete(p.decidedBuf, p.nextDeliver)
		inst := p.nextDeliver
		if v.Skip && v.SkipTo > p.nextDeliver {
			p.nextDeliver = v.SkipTo
			p.stats.Skips.Add(1)
		} else {
			p.nextDeliver++
		}
		if !p.self().Roles.Has(RoleLearner) {
			continue
		}
		p.stats.Delivered.Add(1)
		d := Decided{Ring: p.cfg.Ring, Instance: inst, Value: v}
		if p.sink != nil {
			p.sink(d)
			continue
		}
		select {
		case p.out <- d:
		case <-p.stop:
			return
		}
	}
}

// --- Retransmission ---

const (
	learnRespMaxItems = 2048
	learnRespMaxBytes = 1 << 20
)

func (p *Process) handleLearnReq(m *msg.LearnReq, from transport.Addr) {
	if !p.self().Roles.Has(RoleAcceptor) || p.cfg.Log == nil {
		return
	}
	resp := &msg.LearnResp{Ring: p.cfg.Ring, Trimmed: p.cfg.Log.LowWatermark()}
	bytes := 0
	p.cfg.Log.Range(m.From, m.To, func(i msg.Instance, r storage.Record) {
		if !r.Decided || len(resp.Items) >= learnRespMaxItems || bytes >= learnRespMaxBytes {
			return
		}
		resp.Items = append(resp.Items, msg.DecidedItem{Instance: i, Value: r.Value})
		bytes += r.Value.PayloadBytes()
	})
	p.stats.Retransmits.Add(1)
	p.send(from, resp)
}

func (p *Process) handleLearnResp(m *msg.LearnResp) {
	for _, it := range m.Items {
		p.learn(it.Instance, it.Value)
	}
	p.advance()
}

// requestRetransmission asks an acceptor for the missing delivery gap.
func (p *Process) requestRetransmission() {
	to := p.maxSeen + 1
	if to > p.nextDeliver+learnRespMaxItems {
		to = p.nextDeliver + learnRespMaxItems
	}
	// Round-robin over remote acceptors.
	for tries := 0; tries < p.n; tries++ {
		p.retransAcc = (p.retransAcc + 1) % p.n
		peer := p.cfg.Peers[p.retransAcc]
		if peer.ID == p.cfg.Self || !peer.Roles.Has(RoleAcceptor) {
			continue
		}
		p.send(peer.Addr, &msg.LearnReq{Ring: p.cfg.Ring, From: p.nextDeliver, To: to})
		return
	}
}

// --- Timers ---

func (p *Process) skipTick() {
	if !p.isCoord || p.cfg.SkipRate <= 0 {
		return
	}
	count := p.intervalOps
	p.intervalOps = 0
	// λ is a per-second rate; the per-interval target is λ x Δ.
	target := p.intervalTarget()
	if count >= target {
		return
	}
	if !p.ensureWindow() {
		return
	}
	n := msg.Instance(target - count)
	to := p.next + n
	if to > p.winTo {
		to = p.winTo
	}
	if to <= p.next {
		return
	}
	p.startInstance(msg.Value{Skip: true, SkipTo: to})
}

// handleSkipReq serves learner feedback: the coordinator skips the ring
// forward at once instead of leaving the stalled merge to wait for the
// next Δ tick. A member that does not coordinate forwards the request
// along the ring, for at most one lap. Requests are honoured only with
// rate leveling on (SkipRate > 0) and only when the ring is behind the
// requested bound. The skip covers at least what the current Δ interval
// still owes the ring (λ x Δ less the instances already started in it) —
// the feedback pulls the tick's fill forward, so a stream of requests
// costs about one skip instance per interval, like the tick — and at most
// one whole interval's worth, inside the promised window. The skipped
// range counts toward the interval, so the next tick tops the ring up
// only by what is still missing and the ring's rate stays λ.
func (p *Process) handleSkipReq(m *msg.SkipReq) {
	if !p.isCoord {
		if int(m.Hops)+1 < p.n {
			c := *m
			c.Hops++
			p.forward(&c)
		}
		return
	}
	if p.cfg.SkipRate <= 0 || m.To <= p.next || !p.ensureWindow() {
		return
	}
	target := p.intervalTarget()
	to := m.To
	if owed := target - p.intervalOps; owed > 0 && p.next+msg.Instance(owed) > to {
		to = p.next + msg.Instance(owed)
	}
	if limit := p.next + msg.Instance(target); to > limit {
		to = limit
	}
	if to > p.winTo {
		to = p.winTo
	}
	if to <= p.next {
		return
	}
	from := p.next
	p.startInstance(msg.Value{Skip: true, SkipTo: to})
	p.intervalOps += int(to-from) - 1
}

// intervalTarget is rate leveling's per-interval instance count, λ x Δ.
func (p *Process) intervalTarget() int {
	target := int(float64(p.cfg.SkipRate) * p.cfg.SkipInterval.Seconds())
	if target < 1 {
		target = 1
	}
	return target
}

func (p *Process) retryTick() {
	now := time.Now()
	if p.isCoord {
		if p.winPending && now.Sub(p.winPendSince) > p.cfg.RetryTimeout {
			// Phase 1 lost or refused: raise the ballot and retry.
			p.round++
			p.ballot = ballotFor(p.round, p.selfIdx, p.n)
			if p.promised < p.ballot {
				p.promised = p.ballot
			}
			from := p.next
			p.sendPhase1(from, p.winPendTo)
		}
		for inst, f := range p.inflight {
			if f.decided {
				delete(p.inflight, inst)
				continue
			}
			if now.Sub(f.sentAt) > p.cfg.RetryTimeout {
				f.sentAt = now
				p.propose2(inst, f.value)
			}
		}
		p.flush()
	}
	// Proposer: retransmit proposals not yet observed as learned. The
	// coordinator deduplicates, so this is safe over lossy links.
	for seq, op := range p.outstanding {
		if now.Sub(op.sentAt) > p.cfg.RetryTimeout {
			op.sentAt = now
			p.submit(msg.Entry{Proposer: p.cfg.Self, Seq: seq, Data: op.payload})
		}
	}
	// Learner gap detection.
	if p.self().Roles.Has(RoleLearner) && p.maxSeen >= p.nextDeliver && p.nextDeliver == p.lastProgress {
		p.requestRetransmission()
	}
	p.lastProgress = p.nextDeliver
}
