package store

import (
	"encoding/hex"
	"testing"

	"mrp/internal/txn"
)

// TestCodecGolden pins the byte formats of the store's op, result, stats
// and snapshot encoders against hex captured before they moved onto
// msg.Writer: a format change would split replicas running mixed builds
// and invalidate the txn fuzz corpora, so it must be deliberate.
func TestCodecGolden(t *testing.T) {
	sub := op{kind: opInsert, epoch: 1, key: "k", value: []byte("v")}
	rp, err := newRangePartitionerAssigned([]string{"g", "p"}, []int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSMAt(1, rp, 7, false)
	sm.pendingEpoch, sm.pendingKind = 8, reconfigSplit
	sm.migrating, sm.movedFrom, sm.movedPart = true, "m", 3
	sm.prev = NewHashPartitioner(2)
	sm.data.Put("a", []byte("1"))
	sm.data.Put("b", []byte{})
	sm.votes.put(5, 9, txn.VoteOK)
	sm.votes.put(4, 2, txn.VoteMismatch)

	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"op read", op{kind: opRead, epoch: 2, key: "r"}.encode(), "010000000000000002000172"},
		{"op scan", op{kind: opScan, epoch: 2, key: "a", to: "z", limit: 10}.encode(), "02000000000000000200016100017a0000000a"},
		{"op update", op{kind: opUpdate, epoch: 2, key: "u", value: []byte("x")}.encode(), "0300000000000000020001750000000178"},
		{"op batch", op{kind: opBatch, epoch: 2, batch: []op{sub, {kind: opDelete, epoch: 1, key: "d"}}}.encode(), "060000000000000002000000020000001104000000000000000100016b00000001760000000c050000000000000001000164"},
		{"op migrate", op{kind: opMigrate, epoch: 2, part: 1, batch: []op{sub}}.encode(), "0800000000000000020001000000010000001104000000000000000100016b0000000176"},
		{"op prepare", op{kind: opPrepareReconfig, epoch: 2, rkind: reconfigSplit, part: 0, newPart: 3, key: "m", pmap: rp}.encode(), "070000000000000002010000000300016d010100000003000167000170000000000000000200000001"},
		{"op commit", op{kind: opCommitReconfig, epoch: 2, rkind: reconfigMergeDest, part: 1, newPart: 0, pmap: NewHashPartitioner(3)}.encode(), "0a000000000000000203000100000000010000000003"},
		{"op abort", op{kind: opAbortReconfig, epoch: 2, rkind: reconfigMergeDonor, part: 1, newPart: 0}.encode(), "0b00000000000000020200010000000000"},
		{"op stats", op{kind: opStats, epoch: 2, part: 4}.encode(), "0c00000000000000020004"},
		{"op txn", op{kind: opTxn, epoch: 2, value: []byte{1, 2, 3}}.encode(), "0d000000000000000200000003010203"},
		{"result", result{status: statusOK, partition: 2, epoch: 9, value: []byte("val"),
			entries: []Entry{{Key: "a", Value: []byte("1")}, {Key: "bb", Value: nil}}, count: 3}.encode(), "01000200000000000000090000000376616c000000020001610000000131000262620000000000000003"},
		{"stats", encodeStatsPayload(PartitionStats{Keys: 1, Bytes: 2, Ops: 3}), "000000000000000100000000000000020000000000000003"},
		{"snapshot", sm.Snapshot(), "04000000000000000700000000000000080201000300016d0100000003000167000170000000000000000200000001010000000002000000020001610000000131000162000000000000000200000000000000050000000000000009010000000000000004000000000000000202"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
