package smr

import (
	"errors"
	"slices"

	"mrp/internal/msg"
)

// ErrBadCheckpoint reports checkpoint bytes that do not decode. They come
// from a peer, so a recovering replica must refuse them rather than
// resume past the checkpoint's tuple with partial state.
var ErrBadCheckpoint = errors.New("smr: malformed checkpoint")

// Replica checkpoints wrap the state machine's snapshot with the replica's
// own metadata (the client-dedup table and the replicated lease table),
// framed as:
//
//	u32 dedupLen | dedup bytes | u32 leaseLen | lease bytes | sm snapshot
//
// dedup bytes are repeated (u64 clientID, u64 seq, u64 bits, u32
// resultLen, result); bits is the executed-sequence window bitmap (see
// clientEntry). lease bytes encode the leaseTable (see lease.go) — the
// replicated half of the ring lease, which recovers identically on every
// replica; the process-local serve/silence windows deliberately do not.

func encodeReplicaState(dedup, lease, smState []byte) []byte {
	w := msg.Writer{Buf: make([]byte, 0, 4+len(dedup)+4+len(lease)+len(smState))}
	w.Bytes(dedup)
	w.Bytes(lease)
	w.Buf = append(w.Buf, smState...)
	return w.Buf
}

func decodeReplicaState(b []byte) (dedup, lease, smState []byte, err error) {
	r := msg.NewReader(b)
	dedup, lease = r.Bytes(), r.Bytes()
	smState = r.Raw(r.Remaining())
	if r.Err() != nil {
		return nil, nil, nil, ErrBadCheckpoint
	}
	return dedup, lease, smState, nil
}

// encodeDedup serializes the dedup table in ascending client-ID order:
// the bytes land in the checkpoint, and replicas compare checkpoints by
// content, so map iteration order must not leak into the encoding.
func encodeDedup(m map[uint64]clientEntry) []byte {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var w msg.Writer
	for _, id := range ids {
		e := m[id]
		w.U64(id)
		w.U64(e.seq)
		w.U64(e.bits)
		w.Bytes(e.result)
	}
	return w.Buf
}

// decodeDedup reads what encodeDedup writes: entries up to the end of b,
// in strictly ascending client-ID order. Results are copies.
func decodeDedup(b []byte) (map[uint64]clientEntry, error) {
	m := make(map[uint64]clientEntry)
	r := msg.NewReader(b)
	var prev uint64
	for i := 0; r.Remaining() > 0 && r.Err() == nil; i++ {
		id := r.U64()
		if i > 0 && id <= prev {
			r.Fail()
		}
		prev = id
		m[id] = clientEntry{seq: r.U64(), bits: r.U64(), result: append([]byte(nil), r.Bytes()...)}
	}
	if r.Done() != nil {
		return nil, ErrBadCheckpoint
	}
	return m, nil
}
