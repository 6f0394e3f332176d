package smr

import (
	"errors"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// The SMR batch codec: one atomic multicast payload carrying several
// encoded Commands, so a single consensus instance orders N application
// commands. Clients send every command unwrapped, and batching happens
// below them, at the ring coordinator (ringpaxos.Config.BatchMaxBytes)
// and in the transport (transport.BatchPolicy). A proposer that builds a
// batch with EncodeBatch gets it applied all the same: the replica unpacks
// it at delivery and applies each inner command through the ordinary
// per-client dedup window and reply routing, so exactly-once semantics
// and the determinism invariants hold (docs/DETERMINISM.md, invariant 8:
// batch cut points are never observable in state).

// batchMagic marks a batch payload. The first eight bytes of a plain
// Command encoding are the ClientID, and client IDs must fit in 32 bits
// (ClientConfig.ID), so a first word with the high 32 bits set can never
// collide with a compliant command.
const batchMagic uint64 = 0xFFFFFFFF4D524231 // low word "MRB1"

// ErrBadBatch reports a malformed or non-canonical batch encoding,
// including the empty batch: a batch carries at least one command.
var ErrBadBatch = errors.New("smr: bad batch encoding")

// batchHeaderLen is the fixed prefix: magic (8) + command count (2).
const batchHeaderLen = 10

// EncodeBatch packs encoded commands (Command.Encode outputs) into one
// canonical batch payload: magic, u16 count, then each command
// length-prefixed with a u32. The encoding is strict — DecodeBatch accepts
// exactly the bytes EncodeBatch produces, and re-encoding the decoded
// commands reproduces the input byte for byte (the fuzz target pins this).
//
//mrp:deterministic
func EncodeBatch(payloads [][]byte) []byte {
	n := batchHeaderLen
	for _, p := range payloads {
		n += 4 + len(p)
	}
	w := msg.Writer{Buf: make([]byte, 0, n)}
	w.U64(batchMagic)
	w.U16(uint16(len(payloads)))
	for _, p := range payloads {
		w.Bytes(p)
	}
	return w.Buf
}

// IsBatch reports whether b carries the batch magic. A replica checks this
// before DecodeCommand; everything else is a single command (or a foreign
// payload on a shared ring).
func IsBatch(b []byte) bool {
	r := msg.NewReader(b)
	return r.U64() == batchMagic
}

// DecodeBatch parses a batch payload. The decode is strict: the count must
// be at least one (zero-command batches are rejected), every inner payload
// must be a well-formed Command, and no trailing bytes may follow the last
// command — anything non-canonical is ErrBadBatch, so a batch accepted
// here re-encodes to the identical byte string.
//
//mrp:deterministic
func DecodeBatch(b []byte) ([]Command, error) {
	return decodeBatchInto(nil, b, nil)
}

// decodeBatchInto is DecodeBatch appending into dst (which may be a reused
// scratch slice) and interning reply addresses through intern when
// non-nil; the replica's delivery path passes both so a steady-state batch
// decode allocates nothing. On error dst's contents are unspecified.
//
//mrp:deterministic
func decodeBatchInto(dst []Command, b []byte, intern func([]byte) transport.Addr) ([]Command, error) {
	r := msg.NewReader(b)
	if r.U64() != batchMagic {
		return nil, ErrBadBatch
	}
	// Every command carries at least its 4-byte length prefix.
	count := r.Count(int(r.U16()), 4)
	if count == 0 {
		return nil, ErrBadBatch
	}
	if dst == nil {
		dst = make([]Command, 0, count)
	}
	for i := 0; i < count; i++ {
		cmd, err := decodeCommandWith(r.Bytes(), intern)
		if err != nil {
			return nil, ErrBadBatch
		}
		dst = append(dst, cmd)
	}
	if r.Done() != nil {
		return nil, ErrBadBatch
	}
	return dst, nil
}
