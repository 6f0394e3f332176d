package store

import (
	"errors"

	"mrp/internal/msg"
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

func (o op) encode() []byte {
	w := msg.Writer{Buf: []byte{byte(o.kind)}}
	w.U64(o.epoch)
	switch o.kind {
	case opRead, opDelete:
		w.Str(o.key)
	case opUpdate, opInsert:
		w.Str(o.key)
		w.Bytes(o.value)
	case opScan:
		w.Str(o.key)
		w.Str(o.to)
		w.U32(uint32(o.limit))
	case opBatch, opMigrate:
		if o.kind == opMigrate {
			w.U16(o.part)
		}
		w.U32(uint32(len(o.batch)))
		for _, sub := range o.batch {
			w.Bytes(sub.encode())
		}
	case opPrepareReconfig, opAbortReconfig, opCommitReconfig:
		w.U8(o.rkind)
		w.U16(o.part)
		w.U16(o.newPart)
		w.Str(o.key)
		w.Bool(o.pmap != nil)
		if o.pmap != nil {
			appendPartitioner(&w, o.pmap)
		}
	case opActivatePart, opStats:
		w.U16(o.part)
	case opTxn:
		w.Bytes(o.value)
	}
	return w.Buf
}

// decodeOp parses an op, accepting only what encode produces. Keys are
// copies — they outlive the op, stored in the map or returned in the
// reply — while values alias b.
func decodeOp(b []byte) (op, error) {
	r := msg.NewReader(b)
	o := op{kind: opKind(r.U8()), epoch: r.U64()}
	switch o.kind {
	case opRead, opDelete:
		o.key = r.Str()
	case opUpdate, opInsert:
		o.key = r.Str()
		o.value = r.Bytes()
	case opScan:
		o.key = r.Str()
		o.to = r.Str()
		o.limit = int(r.U32())
	case opBatch, opMigrate:
		if o.kind == opMigrate {
			o.part = r.U16()
		}
		n := r.Count(int(r.U32()), 4)
		o.batch = make([]op, 0, n)
		for i := 0; i < n; i++ {
			sub, err := decodeOp(r.Bytes())
			if err != nil {
				return op{}, errBadOp
			}
			o.batch = append(o.batch, sub)
		}
	case opPrepareReconfig, opAbortReconfig, opCommitReconfig:
		o.rkind = r.U8()
		o.part = r.U16()
		o.newPart = r.U16()
		o.key = r.Str()
		if r.Bool() {
			o.pmap = takePartitioner(&r)
		}
	case opActivatePart, opStats:
		o.part = r.U16()
	case opTxn:
		o.value = r.Bytes()
	default:
		return op{}, errBadOp
	}
	if r.Done() != nil {
		return op{}, errBadOp
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

func (res result) encode() []byte {
	n := 1 + 2 + 8 + 4 + len(res.value) + 4 + 4
	for _, e := range res.entries {
		n += 2 + len(e.Key) + 4 + len(e.Value)
	}
	w := msg.Writer{Buf: make([]byte, 0, n)} // sized exactly: one allocation per result
	w.U8(res.status)
	w.U16(res.partition)
	w.U64(res.epoch)
	w.Bytes(res.value)
	w.U32(uint32(len(res.entries)))
	for _, e := range res.entries {
		w.Str(e.Key)
		w.Bytes(e.Value)
	}
	w.U32(res.count)
	return w.Buf
}

// decodeResult parses a result; values alias b.
func decodeResult(b []byte) (result, error) {
	r := msg.NewReader(b)
	res := result{status: r.U8(), partition: r.U16(), epoch: r.U64(), value: r.Bytes()}
	n := r.Count(int(r.U32()), 6)
	res.entries = make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		res.entries = append(res.entries, Entry{Key: r.Str(), Value: r.Bytes()})
	}
	res.count = r.U32()
	if r.Done() != nil {
		return result{}, errBadOp
	}
	return res, nil
}
