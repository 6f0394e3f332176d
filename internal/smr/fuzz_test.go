package smr

import (
	"bytes"
	"testing"

	"mrp/internal/msg"
)

// FuzzSMRBatchDecode fuzzes the SMR batch codec with the same canonical
// contract the msg codecs enforce: any input DecodeBatch accepts must
// re-encode — via each inner Command's own canonical encoding — to the
// identical byte string, and a batch never carries zero commands. The
// strictness is load-bearing: replicas of a partition must agree on
// whether a delivered payload is a batch, how many commands it carries,
// and what their bytes are, or their dedup windows and state fork.
func FuzzSMRBatchDecode(f *testing.F) {
	one := Command{ClientID: 1, Seq: 9, ReplyTo: "cl", Op: []byte("op")}.Encode()
	two := Command{ClientID: 2, Seq: 1, Op: []byte("x")}.Encode()
	f.Add(EncodeBatch([][]byte{one}))
	f.Add(EncodeBatch([][]byte{one, two}))
	f.Add(EncodeBatch(nil))                     // zero commands: must be rejected
	f.Add(one)                                  // plain command: not a batch
	f.Add([]byte{})                             // empty
	f.Add(EncodeBatch([][]byte{one, two})[:12]) // truncated
	f.Fuzz(func(t *testing.T, b []byte) {
		cmds, err := DecodeBatch(b)
		if err != nil {
			return
		}
		if len(cmds) == 0 {
			t.Fatal("zero-command batch accepted")
		}
		if !IsBatch(b) {
			t.Fatal("DecodeBatch accepted a payload IsBatch rejects")
		}
		payloads := make([][]byte, len(cmds))
		for i, c := range cmds {
			payloads[i] = c.Encode()
		}
		if re := EncodeBatch(payloads); !bytes.Equal(re, b) {
			t.Fatalf("accepted batch is not canonical:\n in  %x\n out %x", b, re)
		}
	})
}

// FuzzCheckpointDecode fuzzes what a recovering replica decodes from a
// peer's checkpoint before installing anything: the frame, the dedup
// table and the lease table. No input may panic, and anything all three
// decoders accept must re-encode to the identical bytes — the replica
// sections are canonical, which is what lets replicas compare
// checkpoints by content.
func FuzzCheckpointDecode(f *testing.F) {
	dedup := encodeDedup(map[uint64]clientEntry{
		7: {seq: 3, bits: 5, result: []byte("r")},
		2: {seq: 1, bits: 1},
	})
	lease := encodeLeaseTable(leaseTable{holder: 4, seq: 6, active: true, durMs: 1500,
		grant: []msg.RingInstance{{Ring: 1, Instance: 10}, {Ring: 3, Instance: 2}}})
	sound := encodeReplicaState(dedup, lease, []byte("sm"))
	f.Add(sound)
	f.Add(encodeReplicaState(nil, encodeLeaseTable(leaseTable{}), nil))
	f.Add(sound[:20])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		dRaw, lRaw, sm, err := decodeReplicaState(b)
		if err != nil {
			return
		}
		d, err := decodeDedup(dRaw)
		if err != nil {
			return
		}
		l, ok := decodeLeaseTable(lRaw)
		if !ok {
			return
		}
		if re := encodeReplicaState(encodeDedup(d), encodeLeaseTable(l), sm); !bytes.Equal(re, b) {
			t.Fatalf("accepted checkpoint is not canonical:\n in %x\nout %x", b, re)
		}
	})
}
