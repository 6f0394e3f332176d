package smr

import (
	"encoding/hex"
	"testing"
	"time"

	"mrp/internal/msg"
)

// TestCodecGolden pins the byte formats of the SMR codecs — command,
// batch, lease claim/revoke/ack and the replica checkpoint frame with its
// dedup and lease sections — against hex captured before they moved onto
// msg.Writer. benchmark/ and peers of other builds decode these bytes.
func TestCodecGolden(t *testing.T) {
	one := Command{ClientID: 1, Seq: 9, ReplyTo: "cl", Op: []byte("op")}.Encode()
	two := Command{ClientID: 2, Seq: 1, Op: []byte("x")}.Encode()
	dedup := encodeDedup(map[uint64]clientEntry{
		7: {seq: 3, bits: 5, result: []byte("r")},
		2: {seq: 1, bits: 1},
	})
	lease := encodeLeaseTable(leaseTable{holder: 4, seq: 6, active: true, durMs: 1500,
		grant: []msg.RingInstance{{Ring: 1, Instance: 10}, {Ring: 3, Instance: 2}}})

	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"command", one, "000000000000000100000000000000090002636c6f70"},
		{"batch", EncodeBatch([][]byte{one, two}), "ffffffff4d524231000200000016000000000000000100000000000000090002636c6f700000001300000000000000020000000000000001000078"},
		{"lease claim", EncodeLeaseClaim(5, 1500*time.Millisecond), "ffffffff4d524c31010000000500000000000005dc"},
		{"lease revoke", EncodeLeaseRevoke(), "ffffffff4d524c3102"},
		{"lease ack", encodeLeaseAck(LeaseAck{Holder: 5, Seq: 2, Active: true}), "00000005000000000000000201"},
		{"replica state", encodeReplicaState(dedup, lease, []byte("sm")), "000000390000000000000002000000000000000100000000000000010000000000000000000000070000000000000003000000000000000500000001720000002b0000000400000000000000060100000000000005dc00020001000000000000000a00030000000000000002736d"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
