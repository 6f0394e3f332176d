package store

import (
	"bytes"
	"testing"

	"mrp/internal/txn"
)

// fuzzOpSeeds covers every op kind, including the cross-partition
// transaction envelope.
func fuzzOpSeeds() [][]byte {
	sub := op{kind: opInsert, epoch: 1, key: "k", value: []byte("v")}
	sampleTxn := txn.Txn{Client: 3, Seq: 7, Kind: txn.KindTransfer, Parts: []uint16{0, 1},
		Ops: []txn.KeyOp{{Part: 0, Key: "a", Delta: -5}, {Part: 1, Key: "b", Delta: 5}}}
	ops := []op{
		{kind: opRead, epoch: 2, key: "r"},
		{kind: opScan, epoch: 2, key: "a", to: "z", limit: 10},
		{kind: opUpdate, epoch: 2, key: "u", value: []byte("x")},
		{kind: opDelete, epoch: 2, key: "d"},
		{kind: opBatch, epoch: 2, batch: []op{sub}},
		{kind: opMigrate, epoch: 2, part: 1, batch: []op{sub}},
		{kind: opPrepareReconfig, epoch: 2, rkind: reconfigSplit, part: 0, newPart: 3, key: "m"},
		{kind: opActivatePart, epoch: 2, part: 3},
		{kind: opCommitReconfig, epoch: 2, rkind: reconfigSplit, part: 0, newPart: 3},
		{kind: opAbortReconfig, epoch: 2, rkind: reconfigMergeDonor, part: 1, newPart: 0},
		{kind: opStats, epoch: 2, part: 0},
		{kind: opTxn, epoch: 2, value: sampleTxn.Encode()},
	}
	seeds := make([][]byte, 0, len(ops))
	for _, o := range ops {
		seeds = append(seeds, o.encode())
	}
	return seeds
}

// FuzzOpDecode checks that the op codec is canonical: whatever decodeOp
// accepts re-encodes to the identical bytes. For opTxn envelopes the
// embedded transaction payload is canonical too: if it parses, it must
// re-encode byte-identically, or ambiguous-timeout retries would not be
// recognized as duplicates by the dedup bitmap.
func FuzzOpDecode(f *testing.F) {
	for _, s := range fuzzOpSeeds() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(opTxn), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeOp(data)
		if err != nil {
			return
		}
		if re := o.encode(); !bytes.Equal(re, data) {
			t.Fatalf("accepted op is not canonical:\n in: %x\nout: %x", data, re)
		}
		if o.kind == opTxn {
			tx, err := txn.Decode(o.value)
			if err != nil {
				return
			}
			if re := tx.Encode(); !bytes.Equal(re, o.value) {
				t.Fatalf("embedded txn payload not canonical:\n in: %x\nout: %x", o.value, re)
			}
		}
	})
}

// FuzzSnapshotRestore checks that Restore is all or nothing: on any input
// it either installs exactly that snapshot (Snapshot then returns the
// input byte for byte) or installs nothing (Snapshot returns the state
// before). smr.Replica.InstallCheckpoint relies on this to refuse a
// corrupt snapshot without an error from Restore.
func FuzzSnapshotRestore(f *testing.F) {
	rp, err := newRangePartitionerAssigned([]string{"g", "p"}, []int{0, 2, 1})
	if err != nil {
		f.Fatal(err)
	}
	sm := NewSMAt(1, rp, 7, false)
	sm.pendingEpoch, sm.pendingKind = 8, reconfigSplit
	sm.migrating, sm.movedFrom, sm.movedPart = true, "m", 3
	sm.prev = NewHashPartitioner(2)
	for _, k := range []string{"a", "b", "c", "d"} {
		sm.data.Put(k, []byte("v-"+k))
	}
	sm.votes.put(5, 9, txn.VoteOK)
	full := sm.Snapshot()
	base := NewSM(0, NewHashPartitioner(1))
	base.data.Put("sentinel", []byte("x"))
	before := base.Snapshot()
	f.Add(full)
	f.Add(full[:len(full)-12])
	f.Add(append(full, 0))
	f.Add(before)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		sm := NewSM(0, NewHashPartitioner(1))
		sm.Restore(before)
		sm.Restore(b)
		got := sm.Snapshot()
		if !bytes.Equal(got, b) && !bytes.Equal(got, before) {
			t.Fatalf("Restore installed part of its input:\n in: %x\nout: %x", b, got)
		}
	})
}
