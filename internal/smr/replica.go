package smr

import (
	"bytes"
	"sort"
	"sync"
	"time"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// StateMachine is the replicated application. Execute must be
// deterministic: replicas apply the same commands in the same order and
// must reach the same state. Snapshot/Restore serialize the full state for
// checkpointing and state transfer (Section 5.2). Snapshots must be
// canonical — Snapshot right after Restore(b) returns b — and Restore
// must install nothing from input it cannot decode in full: a recovering
// replica refuses a checkpoint whose snapshot does not round-trip.
type StateMachine interface {
	Execute(op []byte) []byte
	Snapshot() []byte
	Restore(snapshot []byte)
}

// ReplicaConfig parametrizes a replica.
type ReplicaConfig struct {
	// Node is the Multi-Ring Paxos node this replica runs on.
	Node *multiring.Node
	// Learner is the deterministic-merge learner over the partition's
	// subscribed rings.
	Learner *multiring.Learner
	// SM is the replicated application.
	SM StateMachine
	// Ckpt persists checkpoints; required when CheckpointEvery > 0 or
	// recovery is used.
	Ckpt *storage.CheckpointStore
	// CheckpointEvery triggers a periodic checkpoint (0 disables; the
	// paper's replicas checkpoint periodically and write synchronously to
	// disk so acceptors can trim, Section 7.2).
	CheckpointEvery time.Duration
}

// Replica executes delivered commands against the state machine, responds
// to clients, deduplicates retried commands, maintains the checkpoint
// tuple k_p, and serves the recovery protocol (trim replies, checkpoint
// queries, state transfer).
//
// Execution has no goroutine of its own: the learner calls apply on the
// ring loop that completed the merge, lease reads run on the goroutine
// that received them, Checkpoint and StateSnapshot on their caller. All
// hold exec, so each sees the state between two deliveries; replies are
// sent after it is released. A slow SM.Execute slows the ring loops.
type Replica struct {
	cfg ReplicaConfig

	// exec serializes all state-machine access and is taken before mu.
	exec    sync.Mutex
	stopped bool // set by Stop under exec: apply does nothing

	mu sync.Mutex
	// applied is the live tuple k_p: per subscribed ring, the highest
	// instance whose commands are fully applied.
	applied map[msg.RingID]msg.Instance
	// safe is the tuple of the last *persisted* checkpoint — what trim
	// replies report (trimming ahead of a durable checkpoint would lose
	// the only copy of the commands).
	safe map[msg.RingID]msg.Instance
	// dedup tracks executed command sequences per client (see clientEntry).
	dedup map[uint64]clientEntry

	// lease is the replicated half of the ring lease (see lease.go): a
	// pure function of the delivery stream, checkpointed with the state.
	lease leaseTable
	// readDeadline / suppressUntil are the PROCESS-LOCAL lease windows:
	// until readDeadline this replica (when it is the holder) serves local
	// reads; until suppressUntil this replica (when it is not) withholds
	// client replies. Neither is checkpointed — see the lease.go comment.
	readDeadline  time.Time
	suppressUntil time.Time
	// pendingClaims binds claims this process proposed (via
	// RegisterLeaseClaim) to the serve window computed before proposing.
	pendingClaims map[claimKey]time.Time
	// held queues client replies withheld by the suppression gate, FIFO,
	// up to heldCap. The ring coordinator deduplicates (proposer, seq), so
	// a retransmission of a suppressed command is never re-delivered — the
	// queued reply is the command's ONLY reply. flushHeld sends the queue
	// in order the moment the silence window lapses (holder down, renewals
	// stopped) or an ordered revoke or holder change deactivates the
	// lease. Process-local liveness state, like the windows above; not
	// checkpointed.
	held heldQueue

	executed  uint64
	ckpts     uint64
	onExecute func(Command, []byte)

	// Apply-path scratch, owned by apply (the learner calls it one
	// delivery at a time, under its own mutex): decoded
	// commands and outgoing replies are built into reused slices, reply
	// addresses are interned (clients keep one address for their whole
	// session), and response structs come out of a chunked arena, so a
	// steady-state delivery performs no per-command heap allocation.
	cmdScratch   []Command
	replyScratch []routedReply
	respArena    []msg.Response
	addrCache    map[string]transport.Addr
	intern       func([]byte) transport.Addr

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// clientEntry is one client's deduplication state: the highest executed
// sequence number, a bitmap of executed sequences in the window
// [seq-63, seq] (bit i set means seq-i executed), and the cached result of
// the highest executed command.
//
// A plain "highest seq wins" rule is not enough: a client's commands reach
// a replica over every ring it subscribes to (its partition ring plus the
// global ring), and the deterministic merge does not preserve one client's
// sequence order across rings — a later single-partition command can be
// delivered before an earlier global-ring command (scans, split
// prepare/commit). Such an inversion used to make the replica silently
// swallow the earlier command as a "duplicate". The bitmap distinguishes
// the two cases: an inverted command's bit is unset (execute it), a
// retransmitted duplicate's bit is set (reply with the cached result).
// All replicas of a partition see the same merged order, so the bitmap
// evolves identically everywhere and execution stays deterministic.
type clientEntry struct {
	seq    uint64
	bits   uint64
	result []byte
}

// executed reports whether seq was already executed. Sequences more than
// 63 below the highest executed are beyond the inversion window and can
// only be stale retransmissions: they count as executed.
func (e clientEntry) executed(seq uint64) bool {
	if seq > e.seq {
		return false
	}
	d := e.seq - seq
	if d >= 64 {
		return true
	}
	return e.bits&(1<<d) != 0
}

// record marks seq executed, caching the result of the highest sequence.
func (e clientEntry) record(seq uint64, result []byte) clientEntry {
	if seq > e.seq {
		shift := seq - e.seq
		if e.bits != 0 && shift < 64 {
			e.bits <<= shift
		} else {
			e.bits = 0
		}
		e.bits |= 1
		e.seq = seq
		e.result = result
		return e
	}
	e.bits |= 1 << (e.seq - seq)
	return e
}

// NewReplica creates a replica and makes apply cfg.Learner's deliver
// function. Start runs its timers.
func NewReplica(cfg ReplicaConfig) *Replica {
	r := &Replica{
		cfg:       cfg,
		applied:   make(map[msg.RingID]msg.Instance),
		safe:      make(map[msg.RingID]msg.Instance),
		dedup:     make(map[uint64]clientEntry),
		addrCache: make(map[string]transport.Addr),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	// Bound once: a per-delivery method value would itself allocate.
	r.intern = r.internAddr
	if cfg.Learner != nil {
		cfg.Learner.SetDeliver(r.apply)
	}
	return r
}

// addrCacheCap bounds the reply-address intern cache; on overflow (a churn
// of distinct client addresses no real deployment produces) the cache is
// reset rather than evicted — correctness never depends on it.
const addrCacheCap = 4096

// internAddr returns a stable string for a decoded reply address without
// re-allocating it on every delivery. Process-local routing state only:
// the bytes of the address, which are all that execution observes, are
// identical on every replica.
func (r *Replica) internAddr(b []byte) transport.Addr {
	if a, ok := r.addrCache[string(b)]; ok { // no-alloc map lookup
		return a
	}
	if len(r.addrCache) >= addrCacheCap {
		r.addrCache = make(map[string]transport.Addr)
	}
	a := transport.Addr(b)
	r.addrCache[string(a)] = a
	return a
}

// routedReply pairs a response with its destination while a delivery's
// commands apply; replies are sent only after the watermark advances.
type routedReply struct {
	to   transport.Addr
	resp *msg.Response
}

// respArenaChunk is how many responses one arena refill provides. At the
// wire size of a response (~40 bytes + result) a chunk is one ~10 KiB slab
// amortized over 256 replies.
const respArenaChunk = 256

// newResponse hands out a response struct from the chunked arena. Sent
// messages belong to the transport (both transports hold the pointer
// asynchronously, so a reused struct would race with delivery) — each
// struct is handed out exactly once and the slab is dropped wholesale when
// its last response retires, trading a per-reply heap allocation for one
// amortized slab refill.
func (r *Replica) newResponse(clientID, seq uint64, result []byte) *msg.Response {
	if len(r.respArena) == 0 {
		r.respArena = make([]msg.Response, respArenaChunk)
	}
	resp := &r.respArena[0]
	r.respArena = r.respArena[1:]
	resp.ClientID, resp.Seq, resp.Result = clientID, seq, result
	return resp
}

// OnExecute registers a hook called after every executed command (used by
// benchmarks to observe server-side throughput). Must be set before Start.
func (r *Replica) OnExecute(fn func(Command, []byte)) { r.onExecute = fn }

// HandleService processes non-ring messages addressed to this replica's
// node: lease reads, and checkpoint discovery and state transfer for
// recovering peers. Wire it with Node.Service. A lease read waits for the
// delivery in progress, if any; nothing else blocks.
func (r *Replica) HandleService(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case *msg.LeaseRead:
		_ = r.cfg.Node.Endpoint().Send(env.From, r.serveLeaseRead(m))
	case *msg.CkptQuery:
		r.mu.Lock()
		tuple := tupleOf(r.safe)
		r.mu.Unlock()
		_ = r.cfg.Node.Endpoint().Send(env.From, &msg.CkptReply{
			Seq:     m.Seq,
			Replica: r.cfg.Node.ID(),
			Tuple:   tuple,
		})
	case *msg.CkptFetch:
		if r.cfg.Ckpt == nil {
			return
		}
		ck, ok := r.cfg.Ckpt.Load()
		if !ok {
			return
		}
		_ = r.cfg.Node.Endpoint().Send(env.From, &msg.CkptData{
			Seq:   m.Seq,
			Tuple: ck.Tuple,
			State: ck.State,
		})
	}
}

// HandleTrimQuery answers a trim coordinator's query with this replica's
// highest safe instance k[x]_p for the ring (Section 5.2, Predicate 2
// input). Wire it as the ring process's Aux handler.
func (r *Replica) HandleTrimQuery(env transport.Envelope) {
	q, ok := env.Msg.(*msg.TrimQuery)
	if !ok {
		return
	}
	r.mu.Lock()
	safe := r.safe[q.Ring]
	r.mu.Unlock()
	_ = r.cfg.Node.Endpoint().Send(env.From, &msg.TrimReply{
		Ring:         q.Ring,
		Seq:          q.Seq,
		Replica:      r.cfg.Node.ID(),
		SafeInstance: safe,
	})
}

// Start launches the checkpoint and held-reply timers.
func (r *Replica) Start() {
	go r.run()
}

// Stop ends execution: it waits for the delivery in progress, drops every
// later one, and stops the timers.
func (r *Replica) Stop() {
	r.exec.Lock()
	r.stopped = true
	r.exec.Unlock()
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// Executed returns the number of commands executed.
func (r *Replica) Executed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed
}

// Checkpoints returns the number of checkpoints taken.
func (r *Replica) Checkpoints() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckpts
}

// AppliedTuple returns the live tuple k_p (per-ring applied watermark),
// ordered by ring identifier.
func (r *Replica) AppliedTuple() []msg.RingInstance {
	r.mu.Lock()
	defer r.mu.Unlock()
	return tupleOf(r.applied)
}

// SafeTuple returns the tuple of the last persisted checkpoint.
func (r *Replica) SafeTuple() []msg.RingInstance {
	r.mu.Lock()
	defer r.mu.Unlock()
	return tupleOf(r.safe)
}

// InstallCheckpoint restores the state machine, the deduplication table,
// the lease table and the tuples from a recovered checkpoint. Must be
// called before Start. The replica's own sections are decoded in full
// before anything is installed: malformed ones return ErrBadCheckpoint
// and leave the replica untouched. StateMachine.Restore reports no error,
// so the state-machine section is checked by re-encoding: snapshots are
// canonical, and a Restore that refused its input (a truncated or corrupt
// section) leaves a state whose Snapshot differs from it. Such a
// checkpoint also returns ErrBadCheckpoint, before the dedup and lease
// tables are installed.
func (r *Replica) InstallCheckpoint(ck storage.Checkpoint) error {
	dedupRaw, leaseRaw, smState, err := decodeReplicaState(ck.State)
	if err != nil {
		return err
	}
	dedup, err := decodeDedup(dedupRaw)
	if err != nil {
		return err
	}
	lt, ok := decodeLeaseTable(leaseRaw)
	if !ok {
		return ErrBadCheckpoint
	}
	r.cfg.SM.Restore(smState)
	if !bytes.Equal(r.cfg.SM.Snapshot(), smState) {
		return ErrBadCheckpoint
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dedup = dedup
	r.lease = lt
	// The replicated lease recovers identically; the local windows do
	// not. A recovered holder serves nothing until a fresh claim of its
	// own round-trips (readDeadline stays zero). A recovered non-holder
	// re-arms its silence window from NOW — recovery happens after the
	// claim was applied somewhere, so now + D is a superset of the window
	// the crashed process was observing.
	if lt.active && lt.holder != r.cfg.Node.ID() {
		r.suppressUntil = leaseClockNow().Add(time.Duration(lt.durMs) * time.Millisecond)
	}
	for _, e := range ck.Tuple {
		r.applied[e.Ring] = e.Instance
		r.safe[e.Ring] = e.Instance
	}
	return nil
}

// Checkpoint synchronously snapshots the state machine and persists it,
// advancing the safe tuple (Section 7.2: replicas write checkpoints
// synchronously so acceptors may trim afterwards). The checkpoint also
// carries the client-deduplication table, so a recovered replica keeps
// exactly-once semantics for commands older than the checkpoint. The
// snapshot is taken under the execution lock, so it never observes a
// half-applied command. Checkpoint bytes feed collision-free recovery:
// every replica of the partition must encode the same state for the same
// applied tuple.
//
//mrp:deterministic
func (r *Replica) Checkpoint() {
	if r.cfg.Ckpt == nil {
		return
	}
	r.exec.Lock()
	defer r.exec.Unlock()
	r.mu.Lock()
	tuple := tupleOf(r.applied)
	dedup := encodeDedup(r.dedup)
	lease := encodeLeaseTable(r.lease)
	r.mu.Unlock()
	state := encodeReplicaState(dedup, lease, r.cfg.SM.Snapshot())
	r.cfg.Ckpt.Save(storage.Checkpoint{Tuple: tuple, State: state})
	r.mu.Lock()
	for _, e := range tuple {
		r.safe[e.Ring] = e.Instance
	}
	r.ckpts++
	r.mu.Unlock()
}

// run fires the periodic checkpoint, and the held-reply flush, which
// must drain even when the rings go idle.
func (r *Replica) run() {
	defer close(r.done)
	var ckptC <-chan time.Time
	if r.cfg.CheckpointEvery > 0 {
		t := time.NewTicker(r.cfg.CheckpointEvery)
		defer t.Stop()
		ckptC = t.C
	}
	heldT := time.NewTicker(50 * time.Millisecond)
	defer heldT.Stop()
	for {
		select {
		case <-heldT.C:
			r.flushHeld()
		case <-ckptC:
			r.Checkpoint()
		case <-r.stop:
			return
		}
	}
}

// StateSnapshot returns SM.Snapshot() taken under the execution lock, so
// it never observes a half-applied command (calling SM.Snapshot directly
// while the replica runs is a data race).
func (r *Replica) StateSnapshot() []byte {
	r.exec.Lock()
	defer r.exec.Unlock()
	return r.cfg.SM.Snapshot()
}

// apply is the learner's deliver function, run on the ring loop that
// delivered d: execute under the lock, then send the replies. Its
// allocations are per-delivery garbage, pinned by TestApplyAllocationPin.
func (r *Replica) apply(d multiring.Delivery) {
	r.exec.Lock()
	if r.stopped {
		r.exec.Unlock()
		return
	}
	replies := r.execute(d)
	r.exec.Unlock()
	for _, rep := range replies {
		_ = r.cfg.Node.Endpoint().Send(rep.to, rep.resp)
	}
	// Drop the sent responses before parking the scratch (the transport
	// owns them now); the next apply reuses the capacity.
	clear(replies)
	r.replyScratch = replies[:0]
	r.flushHeld()
}

// execute applies one delivery to the state and advances the applied
// tuple, returning the replies owed (in the reply scratch). Every replica
// of the partition applies the same delivery stream; anything this
// reaches must be a pure function of that stream. The caller holds
// r.exec.
//
//mrp:deterministic
func (r *Replica) execute(d multiring.Delivery) []routedReply {
	if d.Skip {
		r.mu.Lock()
		if d.SkipTo-1 > r.applied[d.Ring] {
			r.applied[d.Ring] = d.SkipTo - 1
		}
		r.mu.Unlock()
		return r.replyScratch[:0]
	}
	// A recovering replica's rings may retransmit instances at or below the
	// restored checkpoint; they are already reflected in the state.
	r.mu.Lock()
	already := d.Instance <= r.applied[d.Ring]
	r.mu.Unlock()
	if already {
		return r.replyScratch[:0]
	}
	// One entry is one atomic unit of execution: a batch's inner commands
	// all apply under one hold of r.exec, so a checkpoint (taken under it
	// too) can never observe half a batch — batch cut points are
	// invisible in state (DETERMINISM invariant 8).
	cmds := r.cmdScratch[:0]
	if IsBatch(d.Entry.Data) {
		var err error
		if cmds, err = decodeBatchInto(cmds, d.Entry.Data, r.intern); err != nil {
			return r.replyScratch[:0] // malformed batch: ignore like any foreign payload
		}
	} else {
		cmd, err := decodeCommandWith(d.Entry.Data, r.intern)
		if err != nil {
			return r.replyScratch[:0] // foreign payload on a shared ring: ignore
		}
		cmds = append(cmds, cmd)
	}
	r.cmdScratch = cmds
	replies := r.replyScratch[:0]
	for _, cmd := range cmds {
		if to, resp := r.applyCommand(cmd); resp != nil {
			replies = append(replies, routedReply{to: to, resp: resp})
		}
	}
	// Advance the applied watermark before replying so a client that
	// observed the response also observes the tuple movement.
	if d.EndOfInstance {
		r.mu.Lock()
		if d.Instance > r.applied[d.Ring] {
			r.applied[d.Ring] = d.Instance
		}
		r.mu.Unlock()
	}
	return replies
}

// applyCommand executes one command through the per-client dedup window
// and returns the response owed to the client (nil when none: the command
// carried no reply address, or it is a stale re-delivery whose result is
// no longer cached). Inside the deterministic scope via execute; the reply
// is routed by the caller after the watermark has advanced.
func (r *Replica) applyCommand(cmd Command) (transport.Addr, *msg.Response) {
	leaseOp := isLeaseOp(cmd.Op)
	r.mu.Lock()
	prev, seen := r.dedup[cmd.ClientID]
	r.mu.Unlock()
	var result []byte
	respond := cmd.ReplyTo != ""
	if seen && prev.executed(cmd.Seq) {
		if cmd.Seq == prev.seq {
			result = prev.result // duplicate of the head: reply with the cache
		} else {
			// Stale re-delivery of an older command: it was executed and
			// answered long ago, and the cache only holds the head
			// sequence's result — stay silent rather than reply with the
			// wrong payload (the synchronous client is not waiting).
			respond = false
		}
	} else {
		if leaseOp {
			// Lease claims/revokes mutate the replicated lease table
			// instead of the application state; they ride the same dedup
			// window so retransmissions are idempotent.
			result = r.applyLease(cmd)
		} else {
			result = r.cfg.SM.Execute(cmd.Op)
		}
		r.mu.Lock()
		r.dedup[cmd.ClientID] = prev.record(cmd.Seq, result)
		r.executed++
		r.mu.Unlock()
		if r.onExecute != nil {
			r.onExecute(cmd, result)
		}
	}
	// While the replicated lease is active, only the holder answers data
	// commands (lease commands are always answered — they are how the
	// lease changes hands). Execution above is unconditional: state and
	// dedup caches stay identical everywhere; only the reply is withheld,
	// which is what makes the holder's applied state cover every write a
	// client could have seen acknowledged. Withheld replies are buffered,
	// not dropped: the coordinator absorbs retransmissions, so if the
	// holder dies without answering, the buffered copy flushed at the
	// window's lapse is the client's only way to ever hear back.
	if respond && !leaseOp {
		r.mu.Lock()
		if r.replySuppressed() {
			r.holdReplyLocked(cmd.ReplyTo, r.newResponse(cmd.ClientID, cmd.Seq, result))
			respond = false
		}
		r.mu.Unlock()
	}
	if !respond {
		return "", nil
	}
	return cmd.ReplyTo, r.newResponse(cmd.ClientID, cmd.Seq, result)
}

// tupleOf converts a watermark map into a tuple ordered by ring ID
// (Predicate 1's ordering).
func tupleOf(m map[msg.RingID]msg.Instance) []msg.RingInstance {
	out := make([]msg.RingInstance, 0, len(m))
	for ring, inst := range m {
		out = append(out, msg.RingInstance{Ring: ring, Instance: inst})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ring < out[j].Ring })
	return out
}
