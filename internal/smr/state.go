package smr

import (
	"encoding/binary"
	"errors"
	"sort"
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

//mrp:codec replicastate encode
func encodeReplicaState(dedup, lease, smState []byte) []byte {
	out := make([]byte, 0, 4+len(dedup)+4+len(lease)+len(smState))
	out = binary.BigEndian.AppendUint32(out, uint32(len(dedup)))
	out = append(out, dedup...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(lease)))
	out = append(out, lease...)
	out = append(out, smState...)
	return out
}

//mrp:codec replicastate decode
func decodeReplicaState(b []byte) (dedup, lease, smState []byte, err error) {
	if len(b) < 4 {
		return nil, nil, nil, ErrBadCheckpoint
	}
	n := int(binary.BigEndian.Uint32(b))
	if len(b) < 4+n+4 {
		return nil, nil, nil, ErrBadCheckpoint
	}
	dedup = b[4 : 4+n]
	b = b[4+n:]
	ln := int(binary.BigEndian.Uint32(b))
	if len(b) < 4+ln {
		return nil, nil, nil, ErrBadCheckpoint
	}
	return dedup, b[4 : 4+ln], b[4+ln:], nil
}

// encodeDedup serializes the dedup table in ascending client-ID order:
// the bytes land in the checkpoint, and replicas compare checkpoints by
// content, so map iteration order must not leak into the encoding.
//
//mrp:codec dedup encode
func encodeDedup(m map[uint64]clientEntry) []byte {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []byte
	for _, id := range ids {
		e := m[id]
		out = binary.BigEndian.AppendUint64(out, id)
		out = binary.BigEndian.AppendUint64(out, e.seq)
		out = binary.BigEndian.AppendUint64(out, e.bits)
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.result)))
		out = append(out, e.result...)
	}
	return out
}

//mrp:codec dedup decode
func decodeDedup(b []byte) (map[uint64]clientEntry, error) {
	m := make(map[uint64]clientEntry)
	for len(b) > 0 {
		if len(b) < 28 {
			return nil, ErrBadCheckpoint
		}
		id := binary.BigEndian.Uint64(b)
		seq := binary.BigEndian.Uint64(b[8:])
		bits := binary.BigEndian.Uint64(b[16:])
		n := int(binary.BigEndian.Uint32(b[24:]))
		if len(b) < 28+n {
			return nil, ErrBadCheckpoint
		}
		m[id] = clientEntry{seq: seq, bits: bits, result: append([]byte(nil), b[28:28+n]...)}
		b = b[28+n:]
	}
	return m, nil
}
