package smr

import (
	"time"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// Ring leases: consensus-free local reads.
//
// Every read used to be a fully ordered command paying the same multicast +
// consensus + merge latency as a write. A ring lease lets one replica — the
// holder — answer read-only operations from its applied state without
// proposing anything. Correctness rests on two mechanisms, neither of which
// depends on clock agreement between processes:
//
//  1. Lease grant/renew ("claim") and revoke are themselves ORDERED
//     commands on the ring, so the lease state every replica carries is a
//     pure function of the delivery stream: totally ordered with writes,
//     identical on all replicas, checkpointed and recovered like any other
//     replicated state (DETERMINISM invariant 9).
//
//  2. While the replicated lease state says "active", only the holder
//     sends client responses for data commands; the other replicas execute
//     everything (their state and dedup caches stay current) but stay
//     silent. A client therefore cannot observe a write acknowledged
//     before the holder applied it, which is exactly what makes the
//     holder's local state a linearizable read source.
//
// Wall-clock time appears only as a conservative LIVENESS bound, in the
// Gray & Cheriton style: the holder serves local reads until
// T_send + D − margin, measured from its own clock at the moment it
// PROPOSED the claim (before any replica applied it), while a non-holder
// stays silent until T_apply + D, measured from its own clock when it
// APPLIED the claim. Since a command is proposed before it is applied
// anywhere, the holder's window provably closes before any non-holder
// resumes acknowledging, regardless of how the two clocks disagree on
// absolute time; the margin covers clock-rate drift over one duration D.
// If the holder crashes, writes stall at most D until the survivors'
// windows lapse and they resume replying — no fencing or failover protocol
// is needed for safety, only for restoring read locality.
//
// None of the wall-clock readings above ever enters replicated state,
// checkpoints, or replies: a recovered replica restores the replicated
// lease table exactly but deliberately NOT the local serve window, so a
// recovered holder serves nothing until a fresh claim of its own
// round-trips through the ring.

// leaseMagic marks a lease command inside Command.Op. Like batchMagic it
// sets the high 32 bits, which no service op encoding produced by the
// store begins with (op kinds are small bytes), so interception before
// StateMachine.Execute cannot swallow an application command.
const leaseMagic uint64 = 0xFFFFFFFF4D524C31 // low word "MRL1"

const (
	leaseOpClaim  = 1
	leaseOpRevoke = 2
)

// leaseClaimLen is magic (8) + opcode (1) + holder (4) + duration ms (8).
const leaseClaimLen = 21

// leaseRevokeLen is magic (8) + opcode (1).
const leaseRevokeLen = 9

// EncodeLeaseClaim builds the ordered command op that grants (or renews)
// the ring's read lease to holder for the given duration. The duration
// rides in the command so every replica arms its silence window from the
// same D, whoever proposed it.
func EncodeLeaseClaim(holder msg.NodeID, d time.Duration) []byte {
	w := msg.Writer{Buf: make([]byte, 0, leaseClaimLen)}
	w.U64(leaseMagic)
	w.U8(leaseOpClaim)
	w.U32(uint32(holder))
	w.U64(uint64(d.Milliseconds()))
	return w.Buf
}

// EncodeLeaseRevoke builds the ordered command op that deactivates the
// ring's read lease. Replies resume from every replica at the revoke's
// delivery position; reconfiguration orders one before each prepare so
// frozen ranges never depend on lease expiry for progress.
func EncodeLeaseRevoke() []byte {
	w := msg.Writer{Buf: make([]byte, 0, leaseRevokeLen)}
	w.U64(leaseMagic)
	w.U8(leaseOpRevoke)
	return w.Buf
}

// isLeaseOp reports whether an op payload carries the lease magic.
func isLeaseOp(b []byte) bool {
	r := msg.NewReader(b)
	return r.U64() == leaseMagic && r.Remaining() > 0
}

// LeaseAck is the decoded reply of a lease claim or revoke command: the
// replicated lease table as of the command's delivery position.
type LeaseAck struct {
	Holder msg.NodeID
	Seq    uint64
	Active bool
}

// DecodeLeaseAck parses a lease command's response payload.
func DecodeLeaseAck(b []byte) (LeaseAck, bool) {
	r := msg.NewReader(b)
	a := LeaseAck{Holder: msg.NodeID(r.U32()), Seq: r.U64(), Active: r.Bool()}
	return a, r.Done() == nil
}

func encodeLeaseAck(a LeaseAck) []byte {
	w := msg.Writer{Buf: make([]byte, 0, 13)}
	w.U32(uint32(a.Holder))
	w.U64(a.Seq)
	w.Bool(a.Active)
	return w.Buf
}

// leaseTable is the REPLICATED half of the lease: a pure function of the
// delivery stream, identical on every replica, carried by checkpoints.
type leaseTable struct {
	holder msg.NodeID // 0 when no lease was ever granted
	seq    uint64     // increments on every applied claim/revoke
	active bool
	durMs  uint64
	// grant is the applied tuple at the moment the current claim applied —
	// the frontier a serving replica must have covered (it trivially has,
	// having applied the claim; the check guards recovered state).
	grant []msg.RingInstance
}

// LocalReader is optionally implemented by state machines that can serve
// read-only operations against their current applied state. ExecuteLocal
// must be side-effect free: it returns the same bytes Execute would have
// for op, or ok=false when op is not locally servable (a write, or an op
// kind the machine refuses to answer without ordering). It runs under the
// replica's execution lock, between deliveries, so it never observes a
// half-applied command or a partial batch.
type LocalReader interface {
	ExecuteLocal(op []byte) ([]byte, bool)
}

// claimKey identifies a proposed claim awaiting its delivery, so the
// holder can bind the serve window it computed BEFORE proposing to the
// claim's apply.
type claimKey struct {
	clientID uint64
	seq      uint64
}

// RegisterLeaseClaim arms this replica to serve local reads once the
// claim identified by (clientID, seq) is applied: deadline is
// T_send + D − margin, computed by the holder from its own clock
// BEFORE proposing, which is what makes the serve window provably shorter
// than every other replica's silence window. Claims applied without a
// registration (replayed after recovery, proposed for someone else) grant
// the replicated lease but no serve window.
func (r *Replica) RegisterLeaseClaim(clientID, seq uint64, deadline time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pendingClaims == nil {
		r.pendingClaims = make(map[claimKey]time.Time)
	}
	// Claims whose proposal was lost never apply and would pin their
	// entries forever; an expired deadline can no longer open a window, so
	// it is safe to drop on the way in.
	now := leaseClockNow()
	for k, dl := range r.pendingClaims {
		if dl.Before(now) {
			delete(r.pendingClaims, k)
		}
	}
	r.pendingClaims[claimKey{clientID, seq}] = deadline
}

// applyLease applies one ordered lease command to the replicated lease
// table and returns the encoded ack. Reached from applyCommand, so it is
// inside the deterministic scope: everything it writes to r.lease must be
// a pure function of the delivery stream. The serve window and the
// silence window are process-local liveness state and deliberately are
// not — see the package comment.
func (r *Replica) applyLease(cmd Command) []byte {
	op := msg.NewReader(cmd.Op)
	op.U64() // the magic isLeaseOp matched
	r.mu.Lock()
	defer r.mu.Unlock()
	switch op.U8() {
	case leaseOpClaim:
		holder := msg.NodeID(op.U32())
		durMs := op.U64()
		if op.Done() != nil {
			break
		}
		r.lease.seq++
		r.lease.active = true
		r.lease.holder = holder
		r.lease.durMs = durMs
		r.lease.grant = tupleOf(r.applied)
		if holder == r.cfg.Node.ID() {
			// The serve window was fixed before this claim was proposed;
			// adopt it only if this process registered it (a replayed or
			// foreign claim arms nothing).
			if dl, ok := r.pendingClaims[claimKey{cmd.ClientID, cmd.Seq}]; ok {
				if dl.After(r.readDeadline) {
					r.readDeadline = dl
				}
				delete(r.pendingClaims, claimKey{cmd.ClientID, cmd.Seq})
			}
		} else {
			// Non-holder: stay silent for D measured from the LOCAL apply
			// time — necessarily later than the holder's T_send.
			until := leaseClockNow().Add(time.Duration(durMs) * time.Millisecond)
			if until.After(r.suppressUntil) {
				r.suppressUntil = until
			}
		}
	case leaseOpRevoke:
		if op.Done() != nil {
			break
		}
		r.lease.seq++
		r.lease.active = false
		r.lease.holder = 0
		r.lease.grant = nil
		// The HOLDER's gates flip at this command's delivery position: it
		// stops serving local reads and, no longer named by the table,
		// resumes answering ordered commands as it applies them. The other
		// replicas' silence windows deliberately keep running on their own
		// clocks (suppressUntil is untouched): the old holder may still be
		// serving reads until IT applies this revoke, so a non-holder that
		// answered a later write "because the lease is revoked" would hand
		// the client an ack the read-serving replica has not applied yet —
		// the stale-read overlap the clock bound exists to prevent.
	}
	return encodeLeaseAck(LeaseAck{Holder: r.lease.holder, Seq: r.lease.seq, Active: r.lease.active})
}

// heldReply is one client response withheld by the suppression gate,
// waiting for the silence window to lapse. at is the local hold time,
// used only to expire entries the holder certainly answered.
type heldReply struct {
	to   transport.Addr
	resp *msg.Response
	at   time.Time
}

// heldCap bounds the suppression buffer. Entries beyond it are the oldest
// — held longest, so almost certainly already answered by a live holder —
// and are dropped first. It is a power of two, the ring buffer's largest
// size.
const heldCap = 8192

// heldQueue is the FIFO of withheld replies: a ring buffer that keeps at
// most heldCap entries and drops the oldest when full. Holding and
// expiring an entry cost O(1) and allocate nothing once the buffer has
// grown to the backlog.
type heldQueue struct {
	buf  []heldReply // power-of-two length, at most heldCap
	head int         // index of the oldest entry
	n    int
}

// at returns the i-th oldest entry.
func (q *heldQueue) at(i int) *heldReply {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// push appends h, dropping the oldest entry when the queue is at heldCap.
func (q *heldQueue) push(h heldReply) {
	if q.n == len(q.buf) {
		if q.n == heldCap {
			q.pop()
		} else {
			buf := make([]heldReply, max(16, 2*len(q.buf)))
			for i := range q.n {
				buf[i] = *q.at(i)
			}
			q.buf, q.head = buf, 0
		}
	}
	*q.at(q.n) = h
	q.n++
}

// pop removes and returns the oldest entry, clearing its slot so the
// response (and its arena slab) can be freed.
func (q *heldQueue) pop() heldReply {
	h := q.buf[q.head]
	q.buf[q.head] = heldReply{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return h
}

// holdReplyLocked buffers a suppressed reply for flushHeld. Caller holds
// r.mu.
func (r *Replica) holdReplyLocked(to transport.Addr, resp *msg.Response) {
	r.held.push(heldReply{to: to, resp: resp, at: leaseClockNow()})
}

// flushHeld releases buffered replies. When the suppression gate is open
// (the lease names this replica, or the silence window lapsed) the whole
// buffer sends, oldest first — this is the liveness path that answers
// writes delivered while a dead holder's lease ran out. While the gate is
// still closed it only expires entries older than one lease duration:
// staying suppressed that long requires fresh ordered claims, which
// requires a live holder, which answered those commands itself. Called
// after every apply and on the replica's timer; the queue is taken out
// under r.mu, so concurrent flushes never send a reply twice.
func (r *Replica) flushHeld() {
	r.mu.Lock()
	if r.held.n == 0 {
		r.mu.Unlock()
		return
	}
	if r.replySuppressed() {
		ttl := time.Duration(r.lease.durMs) * time.Millisecond
		now := leaseClockNow()
		for r.held.n > 0 && now.Sub(r.held.at(0).at) > ttl {
			r.held.pop()
		}
		r.mu.Unlock()
		return
	}
	out := r.held
	r.held = heldQueue{}
	r.mu.Unlock()
	for out.n > 0 {
		h := out.pop()
		_ = r.cfg.Node.Endpoint().Send(h.to, h.resp)
	}
}

// replySuppressed reports whether this replica must withhold the client
// response of a data command. The serving replica — the one the active
// lease names — always answers: what it acks, it has applied, and its
// applied state is what lease reads serve. Everyone else stays silent
// until the clock-bounded silence window lapses, and ONLY until then:
// the window is armed at claim apply and deliberately survives holder
// changes and revocations, because the previous holder retains its serve
// right until its own stream position passes the change, not until ours
// does. Called with r.mu held from the apply path. The wall-clock
// comparison is a pure liveness release — suppression never being lifted
// would only stall writes, and lifting it "too early" is impossible by
// the window construction (T_apply + D ≥ T_send + D > holder's serve
// deadline).
func (r *Replica) replySuppressed() bool {
	if r.lease.active && r.lease.holder == r.cfg.Node.ID() {
		return false
	}
	return leaseClockNow().Before(r.suppressUntil)
}

// ServingLease reports whether this replica currently serves local reads:
// the replicated lease names it and its self-proposed serve window is
// still open. Tests use it; the authoritative gate is serveLeaseRead's.
func (r *Replica) ServingLease() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lease.active && r.lease.holder == r.cfg.Node.ID() &&
		leaseClockNow().Before(r.readDeadline)
}

// LeaseState returns the replicated lease table (holder, seq, active) —
// what an ordered lease command would have acked at the current applied
// position.
func (r *Replica) LeaseState() LeaseAck {
	r.mu.Lock()
	defer r.mu.Unlock()
	return LeaseAck{Holder: r.lease.holder, Seq: r.lease.seq, Active: r.lease.active}
}

// serveLeaseRead answers one local read under the execution lock, so it
// observes the state of an ordered prefix, never half a batch. It
// declines (OK=false, the client falls back to ordering) unless the
// replica runs, the replicated lease names it, its serve window is open,
// the applied frontier covers the grant, and the SM serves the op.
func (r *Replica) serveLeaseRead(m *msg.LeaseRead) *msg.LeaseReply {
	reply := &msg.LeaseReply{ClientID: m.ClientID, Seq: m.Seq}
	r.exec.Lock()
	defer r.exec.Unlock()
	r.mu.Lock()
	ok := !r.stopped && r.lease.active && r.lease.holder == r.cfg.Node.ID() &&
		leaseClockNow().Before(r.readDeadline) &&
		frontierCovers(r.applied, r.lease.grant)
	r.mu.Unlock()
	if sm, can := r.cfg.SM.(LocalReader); ok && can {
		if result, served := sm.ExecuteLocal(m.Op); served {
			reply.OK, reply.Result = true, result
		}
	}
	return reply
}

// frontierCovers reports whether the applied watermark has reached the
// lease's grant position on every ring the grant names.
func frontierCovers(applied map[msg.RingID]msg.Instance, grant []msg.RingInstance) bool {
	for _, g := range grant {
		if applied[g.Ring] < g.Instance {
			return false
		}
	}
	return true
}

// Lease state checkpoint framing: u32 holder | u64 seq | u8 active |
// u64 durMs | u16 grantLen | grant entries (u16 ring, u64 instance).
// The grant tuple is already sorted by ring ID (tupleOf), so the encoding
// is content-deterministic like the rest of the checkpoint.

func encodeLeaseTable(l leaseTable) []byte {
	w := msg.Writer{Buf: make([]byte, 0, 4+8+1+8+2+len(l.grant)*10)}
	w.U32(uint32(l.holder))
	w.U64(l.seq)
	w.Bool(l.active)
	w.U64(l.durMs)
	w.U16(uint16(len(l.grant)))
	for _, g := range l.grant {
		w.U16(uint16(g.Ring))
		w.U64(uint64(g.Instance))
	}
	return w.Buf
}

func decodeLeaseTable(b []byte) (leaseTable, bool) {
	r := msg.NewReader(b)
	l := leaseTable{holder: msg.NodeID(r.U32()), seq: r.U64(), active: r.Bool(), durMs: r.U64()}
	n := r.Count(int(r.U16()), 10)
	for i := 0; i < n; i++ {
		l.grant = append(l.grant, msg.RingInstance{Ring: msg.RingID(r.U16()), Instance: msg.Instance(r.U64())})
	}
	if r.Done() != nil {
		return leaseTable{}, false
	}
	return l, true
}

// leaseClockNow is the single wall-clock read permitted inside the
// replica's deterministic scope. Its value feeds only the two LOCAL
// liveness decisions — "may I still serve reads" and "must I still stay
// silent" — and never replicated state, checkpoints, or replies, so
// determinism is preserved: replicas disagreeing on the time can disagree
// only about whether to answer, never about what the state is.
//
//mrp:leaseclock
func leaseClockNow() time.Time {
	return time.Now()
}
