// Package smr implements state-machine replication on top of Multi-Ring
// Paxos atomic multicast, the pattern both MRP-Store and dLog use (paper
// Sections 6 and 7): clients submit commands to proposers of the ring
// owning the addressed partition; replicas are learners that execute the
// delivered commands in the deterministic merge order and reply directly
// to the client, which keeps the first response.
package smr

import (
	"encoding/binary"
	"errors"

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

// Encode serializes the command into an atomic multicast payload.
func (c Command) Encode() []byte {
	buf := make([]byte, 0, 8+8+2+len(c.ReplyTo)+len(c.Op))
	buf = binary.BigEndian.AppendUint64(buf, c.ClientID)
	buf = binary.BigEndian.AppendUint64(buf, c.Seq)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.ReplyTo)))
	buf = append(buf, c.ReplyTo...)
	buf = append(buf, c.Op...)
	return buf
}

// DecodeCommand parses a payload produced by Encode.
func DecodeCommand(b []byte) (Command, error) {
	return decodeCommandWith(b, nil)
}

// decodeCommandWith parses a payload, materializing the ReplyTo string
// through intern when non-nil. Every delivered command pays a []byte →
// string conversion for its reply address otherwise; the replica's hot
// path passes its address cache so steady-state decoding allocates
// nothing (clients reuse one address across their whole session).
func decodeCommandWith(b []byte, intern func([]byte) transport.Addr) (Command, error) {
	if len(b) < 18 {
		return Command{}, ErrBadCommand
	}
	c := Command{
		ClientID: binary.BigEndian.Uint64(b),
		Seq:      binary.BigEndian.Uint64(b[8:]),
	}
	alen := int(binary.BigEndian.Uint16(b[16:]))
	if len(b) < 18+alen {
		return Command{}, ErrBadCommand
	}
	raw := b[18 : 18+alen]
	if intern != nil {
		c.ReplyTo = intern(raw)
	} else {
		c.ReplyTo = transport.Addr(raw)
	}
	c.Op = b[18+alen:]
	return c, nil
}
