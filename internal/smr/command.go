// Package smr implements state-machine replication on top of Multi-Ring
// Paxos atomic multicast, the pattern both MRP-Store and dLog use (paper
// Sections 6 and 7): clients submit commands to proposers of the ring
// owning the addressed partition; replicas are learners that execute the
// delivered commands in the deterministic merge order and reply directly
// to the client, which keeps the first response.
package smr

import (
	"errors"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// Command is the unit clients multicast: an operation plus the identity
// needed for exactly-once execution ((ClientID, Seq) deduplication at the
// replicas) and for routing the response back (ReplyTo; the paper's
// replicas reply over UDP).
type Command struct {
	ClientID uint64
	Seq      uint64
	ReplyTo  transport.Addr
	Op       []byte
}

// ErrBadCommand reports a malformed command encoding.
var ErrBadCommand = errors.New("smr: bad command encoding")

// Encode serializes the command into an atomic multicast payload: u64
// client ID, u64 seq, u16-prefixed reply address, then the op to the end.
func (c Command) Encode() []byte {
	w := msg.Writer{Buf: make([]byte, 0, 8+8+2+len(c.ReplyTo)+len(c.Op))}
	w.U64(c.ClientID)
	w.U64(c.Seq)
	w.Str(string(c.ReplyTo))
	w.Buf = append(w.Buf, c.Op...)
	return w.Buf
}

// DecodeCommand parses a payload produced by Encode.
func DecodeCommand(b []byte) (Command, error) {
	return decodeCommandWith(b, nil)
}

// decodeCommandWith parses a payload, materializing the ReplyTo string
// through intern when non-nil. Every delivered command pays a []byte →
// string conversion for its reply address otherwise; the replica's hot
// path passes its address cache so steady-state decoding allocates
// nothing (clients reuse one address across their whole session). Op
// aliases b.
func decodeCommandWith(b []byte, intern func([]byte) transport.Addr) (Command, error) {
	r := msg.NewReader(b)
	c := Command{ClientID: r.U64(), Seq: r.U64()}
	raw := r.Raw(int(r.U16()))
	if r.Err() != nil {
		return Command{}, ErrBadCommand
	}
	if intern != nil {
		c.ReplyTo = intern(raw)
	} else {
		c.ReplyTo = transport.Addr(raw)
	}
	c.Op = r.Raw(r.Remaining())
	return c, nil
}
