// Package msg defines the wire messages exchanged by Ring Paxos,
// Multi-Ring Paxos, the recovery protocol, and the services built on top
// (MRP-Store, dLog), together with a compact binary codec.
//
// The message set follows Section 4 and 5 of the paper:
//
//   - Proposal: a value multicast to a group, forwarded along the ring
//     until it reaches the coordinator.
//   - Phase1B: the pre-executed Paxos Phase 1 for a window of consensus
//     instances; Phase 1A and 1B are combined into this one message, which
//     circulates the ring accumulating promises.
//   - Phase2: the combined Phase 2A/2B message circulating the ring and
//     accumulating acceptor votes.
//   - Decision: produced by the last acceptor once a majority voted;
//     circulates until every ring member has received it.
//   - LearnReq / LearnResp: retransmission of decided instances, used by
//     recovering learners (Section 5.1, acceptor recovery).
//   - SkipReq: learner feedback for rate leveling — a learner whose
//     deterministic merge stalls on a ring asks that ring's coordinator to
//     skip forward to where the other subscribed rings already are.
//   - TrimQuery / TrimReply / TrimCmd: the log-trimming protocol between a
//     ring coordinator, the replicas, and the acceptors (Section 5.2).
//   - CkptQuery / CkptReply / CkptFetch / CkptData: remote checkpoint
//     discovery and state transfer between replicas of a partition.
//   - Response: a service reply sent from a replica back to a client.
//   - LeaseRead / LeaseReply: a consensus-free local read served by a
//     lease-holding replica from its applied state (see internal/smr's
//     lease commands), and its answer or refusal.
//   - TxnVote: a vote exchanged between the replicas of the participant
//     partitions of a conditional cross-partition transaction (S-SMR-style
//     execution atomicity; see internal/txn).
//   - Batch: transport-level packing of several messages into one packet.
//     Both transports (internal/tcpnet, internal/netsim) coalesce queued
//     writes into Batch packets; see transport.BatchPolicy.
package msg

import (
	"errors"
	"fmt"
	"sync"
)

// RingID identifies a Ring Paxos instance; one multicast group maps to one
// ring, so RingID doubles as the multicast group identifier.
type RingID uint16

// NodeID identifies a process.
type NodeID uint32

// Ballot is a Paxos round number. Ballots are partitioned across potential
// coordinators so that two coordinators never share a ballot.
type Ballot uint32

// Instance is a consensus instance number within a ring, starting at 1.
type Instance uint64

// Type discriminates the concrete message kinds on the wire.
type Type uint8

// Message type tags.
const (
	TProposal Type = iota + 1
	// Tag 2 is retired and never reused: storage.FileWAL persists
	// marshalled Phase2 records, so later tags keep their numbers.
	_
	TPhase1B
	TPhase2
	TDecision
	TLearnReq
	TLearnResp
	TTrimQuery
	TTrimReply
	TTrimCmd
	TCkptQuery
	TCkptReply
	TCkptFetch
	TCkptData
	TResponse
	TBatch
	TTxnVote
	TLeaseRead
	TLeaseReply
	TSkipReq
	maxType
)

// Message is implemented by every protocol message.
type Message interface {
	// Type returns the wire tag of the message.
	Type() Type
	// Size returns the exact encoded size in bytes, including the tag.
	Size() int
	marshal(w *Writer)
	unmarshal(r *Reader)
}

// ErrBadMessage reports a malformed or truncated encoding.
var ErrBadMessage = errors.New("msg: bad message encoding")

// Proposal carries a value multicast to group Ring. It travels along the
// ring until it reaches the coordinator. (ProposerID, Seq) identify the
// proposal so the coordinator can deduplicate retransmissions.
type Proposal struct {
	Ring       RingID
	ProposerID NodeID
	Seq        uint64
	Payload    []byte
}

// Type implements Message.
func (*Proposal) Type() Type { return TProposal }

// Size implements Message.
func (m *Proposal) Size() int { return 1 + 2 + 4 + 8 + 4 + len(m.Payload) }

func (m *Proposal) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U32(uint32(m.ProposerID))
	w.U64(m.Seq)
	w.Bytes(m.Payload)
}

func (m *Proposal) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.ProposerID = NodeID(r.U32())
	m.Seq = r.U64()
	m.Payload = r.Bytes()
}

// VotedValue reports, inside a Phase1B, the highest-ballot value an acceptor
// has voted for in one instance of the promised window.
type VotedValue struct {
	Instance Instance
	VRnd     Ballot
	Value    Value
}

// Phase1B circulates the ring accumulating promises. Each acceptor that
// promises increments Promises and merges its voted values; the coordinator
// consumes the message when it returns with a majority.
type Phase1B struct {
	Ring     RingID
	Ballot   Ballot
	From     Instance
	To       Instance
	Promises uint8
	Voted    []VotedValue
}

// Type implements Message.
func (*Phase1B) Type() Type { return TPhase1B }

// Size implements Message.
func (m *Phase1B) Size() int {
	n := 1 + 2 + 4 + 8 + 8 + 1 + 4
	for i := range m.Voted {
		n += 8 + 4 + m.Voted[i].Value.size()
	}
	return n
}

func (m *Phase1B) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U32(uint32(m.Ballot))
	w.U64(uint64(m.From))
	w.U64(uint64(m.To))
	w.U8(m.Promises)
	w.U32(uint32(len(m.Voted)))
	for i := range m.Voted {
		w.U64(uint64(m.Voted[i].Instance))
		w.U32(uint32(m.Voted[i].VRnd))
		m.Voted[i].Value.marshal(w)
	}
}

func (m *Phase1B) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.Ballot = Ballot(r.U32())
	m.From = Instance(r.U64())
	m.To = Instance(r.U64())
	m.Promises = r.U8()
	n := int(r.U32())
	if n > r.Remaining() {
		r.Fail()
		return
	}
	if n == 0 {
		return
	}
	m.Voted = make([]VotedValue, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.Voted[i].Instance = Instance(r.U64())
		m.Voted[i].VRnd = Ballot(r.U32())
		m.Voted[i].Value.unmarshal(r)
	}
}

// Entry is one application payload inside a decided Value, tagged with the
// proposer that multicast it and the proposer's sequence number. The tag
// lets the coordinator deduplicate proposals retransmitted over lossy links
// and lets a proposer detect that its proposal was learned.
type Entry struct {
	Proposer NodeID
	Seq      uint64
	Data     []byte
}

// Value is the unit a consensus instance decides on: either a batch of
// application payloads, or a "skip" covering a range of instances used by
// rate leveling (Section 4). A skip Value decides instances
// [Instance, SkipTo) of the enclosing Phase2/Decision as null.
type Value struct {
	Skip   bool
	SkipTo Instance // exclusive upper bound of the skipped range, if Skip
	Batch  []Entry  // application payloads, if !Skip
}

// IsEmpty reports whether the value carries no payloads and is not a skip.
func (v *Value) IsEmpty() bool { return !v.Skip && len(v.Batch) == 0 }

// PayloadBytes returns the total number of payload bytes in the batch.
func (v *Value) PayloadBytes() int {
	n := 0
	for i := range v.Batch {
		n += len(v.Batch[i].Data)
	}
	return n
}

func (v *Value) size() int {
	n := 1 + 8 + 4
	for i := range v.Batch {
		n += 4 + 8 + 4 + len(v.Batch[i].Data)
	}
	return n
}

func (v *Value) marshal(w *Writer) {
	w.Bool(v.Skip)
	w.U64(uint64(v.SkipTo))
	w.U32(uint32(len(v.Batch)))
	for i := range v.Batch {
		w.U32(uint32(v.Batch[i].Proposer))
		w.U64(v.Batch[i].Seq)
		w.Bytes(v.Batch[i].Data)
	}
}

func (v *Value) unmarshal(r *Reader) {
	v.Skip = r.Bool()
	v.SkipTo = Instance(r.U64())
	n := int(r.U32())
	if n > r.Remaining() {
		r.Fail()
		return
	}
	if n == 0 {
		return
	}
	v.Batch = make([]Entry, n)
	for i := 0; i < n && r.err == nil; i++ {
		v.Batch[i].Proposer = NodeID(r.U32())
		v.Batch[i].Seq = r.U64()
		v.Batch[i].Data = r.Bytes()
	}
}

// Phase2 is the combined Phase 2A/2B message. The coordinator emits it with
// Votes=1 (its own vote); each acceptor persists its vote, increments Votes
// and forwards. The last acceptor in the ring turns it into a Decision when
// Votes reaches a majority.
type Phase2 struct {
	Ring     RingID
	Ballot   Ballot
	Instance Instance
	Value    Value
	Votes    uint8
}

// Type implements Message.
func (*Phase2) Type() Type { return TPhase2 }

// Size implements Message.
func (m *Phase2) Size() int { return 1 + 2 + 4 + 8 + 1 + m.Value.size() }

func (m *Phase2) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U32(uint32(m.Ballot))
	w.U64(uint64(m.Instance))
	w.U8(m.Votes)
	m.Value.marshal(w)
}

func (m *Phase2) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.Ballot = Ballot(r.U32())
	m.Instance = Instance(r.U64())
	m.Votes = r.U8()
	m.Value.unmarshal(r)
}

// Decision announces that Instance decided Value. Origin is the ring
// position (NodeID) of the last acceptor that produced the decision, so
// forwarding can stop once the message has gone all the way around.
type Decision struct {
	Ring     RingID
	Instance Instance
	Origin   NodeID
	Value    Value
}

// Type implements Message.
func (*Decision) Type() Type { return TDecision }

// Size implements Message.
func (m *Decision) Size() int { return 1 + 2 + 8 + 4 + m.Value.size() }

func (m *Decision) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U64(uint64(m.Instance))
	w.U32(uint32(m.Origin))
	m.Value.marshal(w)
}

func (m *Decision) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.Instance = Instance(r.U64())
	m.Origin = NodeID(r.U32())
	m.Value.unmarshal(r)
}

// LearnReq asks an acceptor to retransmit the decided values of instances
// [From, To) of Ring to the requesting node.
type LearnReq struct {
	Ring RingID
	From Instance
	To   Instance
}

// Type implements Message.
func (*LearnReq) Type() Type { return TLearnReq }

// Size implements Message.
func (m *LearnReq) Size() int { return 1 + 2 + 8 + 8 }

func (m *LearnReq) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U64(uint64(m.From))
	w.U64(uint64(m.To))
}

func (m *LearnReq) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.From = Instance(r.U64())
	m.To = Instance(r.U64())
}

// DecidedItem is one retransmitted decided instance.
type DecidedItem struct {
	Instance Instance
	Value    Value
}

// LearnResp carries retransmitted decided instances. Trimmed reports the
// acceptor's low watermark: instances below it were trimmed and can only be
// obtained via a checkpoint (Section 5.2).
type LearnResp struct {
	Ring    RingID
	Trimmed Instance
	Items   []DecidedItem
}

// Type implements Message.
func (*LearnResp) Type() Type { return TLearnResp }

// Size implements Message.
func (m *LearnResp) Size() int {
	n := 1 + 2 + 8 + 4
	for i := range m.Items {
		n += 8 + m.Items[i].Value.size()
	}
	return n
}

func (m *LearnResp) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U64(uint64(m.Trimmed))
	w.U32(uint32(len(m.Items)))
	for i := range m.Items {
		w.U64(uint64(m.Items[i].Instance))
		m.Items[i].Value.marshal(w)
	}
}

func (m *LearnResp) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.Trimmed = Instance(r.U64())
	n := int(r.U32())
	if n > r.Remaining() {
		r.Fail()
		return
	}
	if n == 0 {
		return
	}
	m.Items = make([]DecidedItem, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.Items[i].Instance = Instance(r.U64())
		m.Items[i].Value.unmarshal(r)
	}
}

// TrimQuery is sent by a ring coordinator to the replicas subscribing to the
// ring, asking for the highest consensus instance each has safely
// checkpointed (Section 5.2). Seq matches replies to queries.
type TrimQuery struct {
	Ring RingID
	Seq  uint64
}

// Type implements Message.
func (*TrimQuery) Type() Type { return TTrimQuery }

// Size implements Message.
func (m *TrimQuery) Size() int { return 1 + 2 + 8 }

func (m *TrimQuery) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U64(m.Seq)
}

func (m *TrimQuery) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.Seq = r.U64()
}

// TrimReply reports replica Replica's highest safe instance k[x]p for ring
// Ring: the replica has checkpointed a state reflecting all commands decided
// up to SafeInstance.
type TrimReply struct {
	Ring         RingID
	Seq          uint64
	Replica      NodeID
	SafeInstance Instance
}

// Type implements Message.
func (*TrimReply) Type() Type { return TTrimReply }

// Size implements Message.
func (m *TrimReply) Size() int { return 1 + 2 + 8 + 4 + 8 }

func (m *TrimReply) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U64(m.Seq)
	w.U32(uint32(m.Replica))
	w.U64(uint64(m.SafeInstance))
}

func (m *TrimReply) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.Seq = r.U64()
	m.Replica = NodeID(r.U32())
	m.SafeInstance = Instance(r.U64())
}

// TrimCmd instructs the acceptors of Ring to delete data about all consensus
// instances up to and including UpTo (the K[x]_T of Predicate 2).
type TrimCmd struct {
	Ring RingID
	UpTo Instance
}

// Type implements Message.
func (*TrimCmd) Type() Type { return TTrimCmd }

// Size implements Message.
func (m *TrimCmd) Size() int { return 1 + 2 + 8 }

func (m *TrimCmd) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U64(uint64(m.UpTo))
}

func (m *TrimCmd) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.UpTo = Instance(r.U64())
}

// SkipReq asks the coordinator of Ring for a skip instance that brings the
// ring's next free instance up to To (the exclusive SkipTo bound the skip
// would carry). A learner sends it when its deterministic merge stalls on
// Ring while another subscribed ring has already advanced past it. Members
// that do not coordinate forward it along the ring; Hops counts those
// forwards so a request finding no coordinator dies after one lap. Only
// the timing of the skip depends on the request: the skip value itself is
// decided through consensus like every other.
type SkipReq struct {
	Ring RingID
	To   Instance
	Hops uint8
}

// Type implements Message.
func (*SkipReq) Type() Type { return TSkipReq }

// Size implements Message.
func (m *SkipReq) Size() int { return 1 + 2 + 8 + 1 }

func (m *SkipReq) marshal(w *Writer) {
	w.U16(uint16(m.Ring))
	w.U64(uint64(m.To))
	w.U8(m.Hops)
}

func (m *SkipReq) unmarshal(r *Reader) {
	m.Ring = RingID(r.U16())
	m.To = Instance(r.U64())
	m.Hops = r.U8()
}

// RingInstance is one entry of a checkpoint tuple k_p: the highest applied
// instance of one ring. Tuples are ordered by ring identifier (Predicate 1).
type RingInstance struct {
	Ring     RingID
	Instance Instance
}

// CkptQuery asks a peer replica for the identifier of its most recent
// checkpoint. Seq matches replies to queries.
type CkptQuery struct {
	Seq uint64
}

// Type implements Message.
func (*CkptQuery) Type() Type { return TCkptQuery }

// Size implements Message.
func (m *CkptQuery) Size() int { return 1 + 8 }

func (m *CkptQuery) marshal(w *Writer) { w.U64(m.Seq) }

func (m *CkptQuery) unmarshal(r *Reader) { m.Seq = r.U64() }

// CkptReply reports the identifier (tuple k_q) of the replying replica's
// most up-to-date checkpoint.
type CkptReply struct {
	Seq     uint64
	Replica NodeID
	Tuple   []RingInstance
}

// Type implements Message.
func (*CkptReply) Type() Type { return TCkptReply }

// Size implements Message.
func (m *CkptReply) Size() int { return 1 + 8 + 4 + 4 + len(m.Tuple)*(2+8) }

func (m *CkptReply) marshal(w *Writer) {
	w.U64(m.Seq)
	w.U32(uint32(m.Replica))
	w.U32(uint32(len(m.Tuple)))
	for _, t := range m.Tuple {
		w.U16(uint16(t.Ring))
		w.U64(uint64(t.Instance))
	}
}

func (m *CkptReply) unmarshal(r *Reader) {
	m.Seq = r.U64()
	m.Replica = NodeID(r.U32())
	n := int(r.U32())
	if n > r.Remaining() {
		r.Fail()
		return
	}
	if n > 0 {
		m.Tuple = make([]RingInstance, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.Tuple[i].Ring = RingID(r.U16())
		m.Tuple[i].Instance = Instance(r.U64())
	}
}

// CkptFetch asks a peer replica to transfer its most recent checkpoint.
type CkptFetch struct {
	Seq uint64
}

// Type implements Message.
func (*CkptFetch) Type() Type { return TCkptFetch }

// Size implements Message.
func (m *CkptFetch) Size() int { return 1 + 8 }

func (m *CkptFetch) marshal(w *Writer) { w.U64(m.Seq) }

func (m *CkptFetch) unmarshal(r *Reader) { m.Seq = r.U64() }

// CkptData transfers a full checkpoint: the tuple identifying it and the
// serialized service state.
type CkptData struct {
	Seq   uint64
	Tuple []RingInstance
	State []byte
}

// Type implements Message.
func (*CkptData) Type() Type { return TCkptData }

// Size implements Message.
func (m *CkptData) Size() int {
	return 1 + 8 + 4 + len(m.Tuple)*(2+8) + 4 + len(m.State)
}

func (m *CkptData) marshal(w *Writer) {
	w.U64(m.Seq)
	w.U32(uint32(len(m.Tuple)))
	for _, t := range m.Tuple {
		w.U16(uint16(t.Ring))
		w.U64(uint64(t.Instance))
	}
	w.Bytes(m.State)
}

func (m *CkptData) unmarshal(r *Reader) {
	m.Seq = r.U64()
	n := int(r.U32())
	if n > r.Remaining() {
		r.Fail()
		return
	}
	if n > 0 {
		m.Tuple = make([]RingInstance, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.Tuple[i].Ring = RingID(r.U16())
		m.Tuple[i].Instance = Instance(r.U64())
	}
	m.State = r.Bytes()
}

// Response carries a service reply from a replica back to a client.
// (ClientID, Seq) match it to the originating request; replicas all reply
// and the client keeps the first response (paper Section 7.2).
type Response struct {
	ClientID uint64
	Seq      uint64
	Result   []byte
}

// Type implements Message.
func (*Response) Type() Type { return TResponse }

// Size implements Message.
func (m *Response) Size() int { return 1 + 8 + 8 + 4 + len(m.Result) }

func (m *Response) marshal(w *Writer) {
	w.U64(m.ClientID)
	w.U64(m.Seq)
	w.Bytes(m.Result)
}

func (m *Response) unmarshal(r *Reader) {
	m.ClientID = r.U64()
	m.Seq = r.U64()
	m.Result = r.Bytes()
}

// TxnVote carries one participant partition's vote on a conditional
// cross-partition transaction between replicas (internal/txn). (ClientID,
// Seq) identify the transaction — the same pair that identifies the
// ordered command carrying it — Part is the voting partition and Vote its
// verdict. Want set asks the receiver to send its own vote back: the vote
// exchange is a pull-push protocol, so a replica that lost a vote (crash,
// late subscribe, replay after recovery) can always re-request it.
type TxnVote struct {
	ClientID uint64
	Seq      uint64
	Part     uint16
	Vote     uint8
	Want     bool
}

// Type implements Message.
func (*TxnVote) Type() Type { return TTxnVote }

// Size implements Message.
func (m *TxnVote) Size() int { return 1 + 8 + 8 + 2 + 1 + 1 }

func (m *TxnVote) marshal(w *Writer) {
	w.U64(m.ClientID)
	w.U64(m.Seq)
	w.U16(m.Part)
	w.U8(m.Vote)
	w.Bool(m.Want)
}

func (m *TxnVote) unmarshal(r *Reader) {
	m.ClientID = r.U64()
	m.Seq = r.U64()
	m.Part = r.U16()
	m.Vote = r.U8()
	m.Want = r.Bool()
}

// LeaseRead asks a lease-holding replica to serve a read-only operation
// from its applied state without ordering it (consensus-free local read).
// (ClientID, Seq) match the reply to the request; unlike ordered commands
// the pair never enters replicated state — a lease read is answered by
// exactly one replica or not at all, and the client falls back to the
// ordered path on timeout.
type LeaseRead struct {
	ClientID uint64
	Seq      uint64
	Op       []byte
}

// Type implements Message.
func (*LeaseRead) Type() Type { return TLeaseRead }

// Size implements Message.
func (m *LeaseRead) Size() int { return 1 + 8 + 8 + 4 + len(m.Op) }

func (m *LeaseRead) marshal(w *Writer) {
	w.U64(m.ClientID)
	w.U64(m.Seq)
	w.Bytes(m.Op)
}

func (m *LeaseRead) unmarshal(r *Reader) {
	m.ClientID = r.U64()
	m.Seq = r.U64()
	m.Op = r.Bytes()
}

// LeaseReply answers a LeaseRead. OK=false means the replica declined to
// serve locally — it holds no active lease, its frontier has not covered
// the lease's grant position yet, or its read queue was full — and carries
// no result; the client falls back to the ordered read path. OK=true
// carries the service result bytes exactly as an ordered execution of the
// same op would have produced them (including typed redirects).
type LeaseReply struct {
	ClientID uint64
	Seq      uint64
	OK       bool
	Result   []byte
}

// Type implements Message.
func (*LeaseReply) Type() Type { return TLeaseReply }

// Size implements Message.
func (m *LeaseReply) Size() int { return 1 + 8 + 8 + 1 + 4 + len(m.Result) }

func (m *LeaseReply) marshal(w *Writer) {
	w.U64(m.ClientID)
	w.U64(m.Seq)
	w.Bool(m.OK)
	w.Bytes(m.Result)
}

func (m *LeaseReply) unmarshal(r *Reader) {
	m.ClientID = r.U64()
	m.Seq = r.U64()
	m.OK = r.Bool()
	m.Result = r.Bytes()
}

// Batch packs several messages into one packet to amortize per-message
// transport overhead (paper Section 4: "different types of messages ... are
// often grouped into bigger packets before being forwarded").
type Batch struct {
	Msgs []Message
}

// Type implements Message.
func (*Batch) Type() Type { return TBatch }

// Size implements Message.
func (m *Batch) Size() int {
	n := 1 + 4
	for _, sub := range m.Msgs {
		n += 4 + sub.Size()
	}
	return n
}

func (m *Batch) marshal(w *Writer) {
	w.U32(uint32(len(m.Msgs)))
	for _, sub := range m.Msgs {
		w.U32(uint32(sub.Size()))
		w.U8(uint8(sub.Type()))
		sub.marshal(w)
	}
}

func (m *Batch) unmarshal(r *Reader) {
	n := int(r.U32())
	if n > r.Remaining() {
		r.Fail()
		return
	}
	if n == 0 {
		return
	}
	m.Msgs = make([]Message, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		size := int(r.U32())
		if size < 1 || size > r.Remaining() {
			r.Fail()
			return
		}
		sub, err := Unmarshal(r.Raw(size))
		if err != nil {
			r.Fail()
			return
		}
		m.Msgs = append(m.Msgs, sub)
	}
}

// New returns a zero message of the given type, or nil for unknown types.
func New(t Type) Message {
	switch t {
	case TProposal:
		return &Proposal{}
	case TPhase1B:
		return &Phase1B{}
	case TPhase2:
		return &Phase2{}
	case TDecision:
		return &Decision{}
	case TLearnReq:
		return &LearnReq{}
	case TLearnResp:
		return &LearnResp{}
	case TTrimQuery:
		return &TrimQuery{}
	case TTrimReply:
		return &TrimReply{}
	case TTrimCmd:
		return &TrimCmd{}
	case TCkptQuery:
		return &CkptQuery{}
	case TCkptReply:
		return &CkptReply{}
	case TCkptFetch:
		return &CkptFetch{}
	case TCkptData:
		return &CkptData{}
	case TResponse:
		return &Response{}
	case TBatch:
		return &Batch{}
	case TTxnVote:
		return &TxnVote{}
	case TLeaseRead:
		return &LeaseRead{}
	case TLeaseReply:
		return &LeaseReply{}
	case TSkipReq:
		return &SkipReq{}
	default:
		return nil
	}
}

// Marshal encodes m with a leading type tag.
func Marshal(m Message) []byte {
	return MarshalTo(make([]byte, 0, m.Size()), m)
}

// MarshalTo appends the encoding of m (leading type tag included) to dst and
// returns the extended slice. With a dst of sufficient capacity it performs
// no allocation; pair it with GetBuffer/PutBuffer to reuse encode buffers
// across messages on a transport's hot send path.
func MarshalTo(dst []byte, m Message) []byte {
	w := Writer{Buf: dst}
	w.U8(uint8(m.Type()))
	m.marshal(&w)
	return w.Buf
}

// AppendBatch appends the encoding of a Batch containing msgs to dst without
// constructing a Batch value, and returns the extended slice. The result is
// byte-identical to MarshalTo(dst, &Batch{Msgs: msgs}).
func AppendBatch(dst []byte, msgs []Message) []byte {
	w := Writer{Buf: dst}
	w.U8(uint8(TBatch))
	w.U32(uint32(len(msgs)))
	for _, sub := range msgs {
		w.U32(uint32(sub.Size()))
		w.U8(uint8(sub.Type()))
		sub.marshal(&w)
	}
	return w.Buf
}

// BatchSize returns the encoded size of a Batch containing msgs, i.e. what
// (&Batch{Msgs: msgs}).Size() would report, without building the value.
func BatchSize(msgs []Message) int {
	n := 1 + 4
	for _, sub := range msgs {
		n += 4 + sub.Size()
	}
	return n
}

// bufPool recycles encode buffers for MarshalTo-based hot paths.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledBuf bounds the capacity of buffers returned to the pool, so one
// oversized message does not pin a huge allocation forever.
const maxPooledBuf = 1 << 20

// GetBuffer returns a reusable encode buffer of zero length. Return it with
// PutBuffer when the encoded bytes are no longer referenced.
func GetBuffer() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must not
// retain any slice of it afterwards.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// Unmarshal decodes one message from b. The entire slice must be consumed.
func Unmarshal(b []byte) (Message, error) {
	if len(b) < 1 {
		return nil, ErrBadMessage
	}
	t := Type(b[0])
	m := New(t)
	if m == nil {
		return nil, fmt.Errorf("msg: unknown type %d: %w", t, ErrBadMessage)
	}
	r := Reader{buf: b, off: 1}
	m.unmarshal(&r)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("msg: %d trailing bytes: %w", len(b)-r.off, ErrBadMessage)
	}
	return m, nil
}
