package store

import (
	"encoding/binary"
	"errors"
)

// opKind tags the MRP-Store operations of Table 1, plus the client-side
// batch of small writes (Section 7.2: "clients may batch small commands,
// grouped by partition, up to 32 Kbytes") and the online-repartitioning
// commands of the elastic-rebalancing protocol (internal/rebalance).
type opKind byte

const (
	opRead opKind = iota + 1
	opScan
	opUpdate
	opInsert
	opDelete
	opBatch
	// opPrepareReconfig freezes the donor side of a reconfiguration (and,
	// for a merge, arms the destination); ordered through a ring every
	// affected replica subscribes to, so the freeze lands at the same
	// logical point everywhere. The reconfig kind below selects the exact
	// semantics.
	opPrepareReconfig
	// opMigrate installs a chunk of frozen entries on the destination
	// partition's ring — while the partition is warming (split) or
	// receiving (merge).
	opMigrate
	// opActivatePart ends a new partition's warming phase once the full
	// range has been migrated; client commands are served afterwards.
	opActivatePart
	// opCommitReconfig flips ownership atomically: a split's source drops
	// the moved range, a merge's survivor adopts the merged mapping, and
	// the replicas on the ring adopt the new schema epoch.
	opCommitReconfig
	// opAbortReconfig is the ordered inverse of opPrepareReconfig: it
	// unfreezes a prepared range, restores the pre-prepare mapping, and
	// drops half-transferred entries, so a reconfiguration that dies
	// between prepare and commit can be rolled back without losing the
	// range forever.
	opAbortReconfig
	// opStats reads one partition's load/size accounting (key count, byte
	// size, cumulative data ops executed) — the signal surface the
	// auto-sharding controller samples. It is a read: it mutates nothing
	// and does not itself count as load.
	opStats
	// opTxn carries a cross-partition transaction (internal/txn): one
	// command multicast once to the minimal ring set covering its
	// participant partitions; each participant's SM executes its half at
	// the same merged position, non-participants sharing a ring reply
	// "not involved". The transaction payload rides in the value field
	// with its own canonical codec.
	opTxn
)

// Reconfiguration kinds carried by prepare/abort/commit commands.
const (
	// reconfigSplit: carve [key, hi) out of partition `part` for the new
	// partition `newPart`; every replica on the ordering ring adopts the
	// post-split mapping at prepare.
	reconfigSplit byte = iota + 1
	// reconfigMergeDonor: freeze partition `part` entirely — its whole
	// range is moving to `newPart` — and return its entries. The mapping
	// does not change until the survivor's commit.
	reconfigMergeDonor
	// reconfigMergeDest: arm partition `newPart` to accept epoch-tagged
	// migrate chunks for the range it will own after the commit.
	reconfigMergeDest
)

// errBadOp reports a malformed operation or result encoding.
var errBadOp = errors.New("store: bad encoding")

// op is one decoded store operation. Every op carries the schema epoch the
// client routed under; replicas answer ops routed under a superseded
// mapping with statusWrongEpoch (the typed redirect of the rebalancing
// protocol).
type op struct {
	kind    opKind
	epoch   uint64
	key     string // split key for opPrepareReconfig(split)
	value   []byte
	to      string // scan upper bound
	limit   int    // scan limit
	batch   []op   // for opBatch/opMigrate (write ops only)
	part    uint16 // donor partition (reconfig) / target partition (activate, migrate)
	newPart uint16 // partition receiving the moved range (reconfig)
	rkind   byte   // reconfiguration kind (reconfigSplit, ...)
	// pmap is the authoritative post-reconfiguration mapping carried by a
	// split's prepare and a merge's commit. Replicas install it instead of
	// deriving the next mapping from their own — a replica whose rings saw
	// none of the intervening reconfigurations (they ride other rings) has
	// a stale view that a local Split/Merge would reject or corrupt.
	pmap Partitioner
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errBadOp
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, errBadOp
	}
	// The decoded key outlives the op — it is stored in the map or
	// becomes part of the reply — so the copy is mandatory.
	return string(b[2 : 2+n]), b[2+n:], nil
}

func takeBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errBadOp
	}
	n := int(binary.BigEndian.Uint32(b))
	if len(b) < 4+n {
		return nil, nil, errBadOp
	}
	return b[4 : 4+n], b[4+n:], nil
}

func (o op) encode() []byte {
	b := []byte{byte(o.kind)}
	b = binary.BigEndian.AppendUint64(b, o.epoch)
	switch o.kind {
	case opRead, opDelete:
		b = appendString(b, o.key)
	case opUpdate, opInsert:
		b = appendString(b, o.key)
		b = appendBytes(b, o.value)
	case opScan:
		b = appendString(b, o.key)
		b = appendString(b, o.to)
		b = binary.BigEndian.AppendUint32(b, uint32(o.limit))
	case opBatch:
		b = binary.BigEndian.AppendUint32(b, uint32(len(o.batch)))
		for _, sub := range o.batch {
			enc := sub.encode()
			b = appendBytes(b, enc)
		}
	case opMigrate:
		b = binary.BigEndian.AppendUint16(b, o.part)
		b = binary.BigEndian.AppendUint32(b, uint32(len(o.batch)))
		for _, sub := range o.batch {
			enc := sub.encode()
			b = appendBytes(b, enc)
		}
	case opPrepareReconfig, opAbortReconfig, opCommitReconfig:
		b = append(b, o.rkind)
		b = binary.BigEndian.AppendUint16(b, o.part)
		b = binary.BigEndian.AppendUint16(b, o.newPart)
		b = appendString(b, o.key)
		if o.pmap != nil {
			b = append(b, 1)
			b = appendPartitioner(b, o.pmap)
		} else {
			b = append(b, 0)
		}
	case opActivatePart, opStats:
		b = binary.BigEndian.AppendUint16(b, o.part)
	case opTxn:
		b = appendBytes(b, o.value)
	}
	return b
}

func decodeOp(b []byte) (op, error) {
	if len(b) < 9 {
		return op{}, errBadOp
	}
	o := op{kind: opKind(b[0]), epoch: binary.BigEndian.Uint64(b[1:])}
	b = b[9:]
	var err error
	switch o.kind {
	case opRead, opDelete:
		o.key, _, err = takeString(b)
	case opUpdate, opInsert:
		o.key, b, err = takeString(b)
		if err == nil {
			o.value, _, err = takeBytes(b)
		}
	case opScan:
		o.key, b, err = takeString(b)
		if err == nil {
			o.to, b, err = takeString(b)
		}
		if err == nil {
			if len(b) < 4 {
				return op{}, errBadOp
			}
			o.limit = int(binary.BigEndian.Uint32(b))
		}
	case opBatch, opMigrate:
		if o.kind == opMigrate {
			if len(b) < 2 {
				return op{}, errBadOp
			}
			o.part = binary.BigEndian.Uint16(b)
			b = b[2:]
		}
		if len(b) < 4 {
			return op{}, errBadOp
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n > len(b) {
			return op{}, errBadOp
		}
		o.batch = make([]op, 0, n)
		for i := 0; i < n; i++ {
			var raw []byte
			raw, b, err = takeBytes(b)
			if err != nil {
				return op{}, err
			}
			sub, subErr := decodeOp(raw)
			if subErr != nil {
				return op{}, subErr
			}
			o.batch = append(o.batch, sub)
		}
	case opPrepareReconfig, opAbortReconfig, opCommitReconfig:
		if len(b) < 5 {
			return op{}, errBadOp
		}
		o.rkind = b[0]
		o.part = binary.BigEndian.Uint16(b[1:])
		o.newPart = binary.BigEndian.Uint16(b[3:])
		o.key, b, err = takeString(b[5:])
		if err == nil {
			if len(b) < 1 {
				return op{}, errBadOp
			}
			hasMap := b[0] != 0
			b = b[1:]
			if hasMap {
				var ok bool
				o.pmap, _, ok = takePartitioner(b)
				if !ok {
					return op{}, errBadOp
				}
			}
		}
	case opActivatePart, opStats:
		if len(b) < 2 {
			return op{}, errBadOp
		}
		o.part = binary.BigEndian.Uint16(b)
	case opTxn:
		o.value, _, err = takeBytes(b)
	default:
		return op{}, errBadOp
	}
	if err != nil {
		return op{}, err
	}
	return o, nil
}

// Result status codes.
const (
	statusOK byte = iota + 1
	statusNotFound
	statusError
	// statusWrongEpoch is the typed redirect of the rebalancing protocol:
	// the replica does not (or no longer) own the addressed key under the
	// schema the command was routed with. The result's epoch field reports
	// the replica's current epoch; clients refresh their schema and retry.
	statusWrongEpoch
)

// result is a replica's reply to one operation, tagged with the partition
// that produced it so multi-partition clients can gather one reply per
// partition, and with the replica's schema epoch so stale clients know to
// refresh.
type result struct {
	status    byte
	partition uint16
	epoch     uint64
	value     []byte  // read result
	entries   []Entry // scan/prepare-split result
	count     uint32  // batch result
}

func (r result) encode() []byte {
	n := 1 + 2 + 8 + 4 + len(r.value) + 4 + 4
	for _, e := range r.entries {
		n += 2 + len(e.Key) + 4 + len(e.Value)
	}
	b := make([]byte, 0, n) // sized exactly: one allocation per result
	b = append(b, r.status)
	b = binary.BigEndian.AppendUint16(b, r.partition)
	b = binary.BigEndian.AppendUint64(b, r.epoch)
	b = appendBytes(b, r.value)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.entries)))
	for _, e := range r.entries {
		b = appendString(b, e.Key)
		b = appendBytes(b, e.Value)
	}
	b = binary.BigEndian.AppendUint32(b, r.count)
	return b
}

func decodeResult(b []byte) (result, error) {
	if len(b) < 11 {
		return result{}, errBadOp
	}
	r := result{
		status:    b[0],
		partition: binary.BigEndian.Uint16(b[1:]),
		epoch:     binary.BigEndian.Uint64(b[3:]),
	}
	b = b[11:]
	var err error
	r.value, b, err = takeBytes(b)
	if err != nil {
		return result{}, err
	}
	if len(b) < 4 {
		return result{}, errBadOp
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > len(b) {
		return result{}, errBadOp
	}
	r.entries = make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		var k string
		var v []byte
		k, b, err = takeString(b)
		if err != nil {
			return result{}, err
		}
		v, b, err = takeBytes(b)
		if err != nil {
			return result{}, err
		}
		r.entries = append(r.entries, Entry{Key: k, Value: v})
	}
	if len(b) < 4 {
		return result{}, errBadOp
	}
	r.count = binary.BigEndian.Uint32(b)
	return r, nil
}
