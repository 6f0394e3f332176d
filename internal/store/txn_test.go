package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/smr"
	"mrp/internal/txn"
)

func execSMTxn(t *testing.T, sm *SM, tx txn.Txn) (result, txn.Result) {
	t.Helper()
	res, err := decodeResult(sm.Execute(op{kind: opTxn, epoch: sm.Epoch(), value: tx.Encode()}.encode()))
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.status != statusOK {
		return res, txn.Result{}
	}
	tr, err := txn.DecodeResult(res.value)
	if err != nil {
		t.Fatalf("decode txn result: %v", err)
	}
	return res, tr
}

func TestSMTxnTransferAndGet(t *testing.T) {
	sm := NewSM(0, NewHashPartitioner(1))
	tr := txn.Txn{Client: 1, Seq: 1, Kind: txn.KindTransfer, Parts: []uint16{0},
		Ops: []txn.KeyOp{{Part: 0, Key: "a", Delta: -5}, {Part: 0, Key: "b", Delta: 5}}}
	_, res := execSMTxn(t, sm, tr)
	if res.Outcome != txn.OutcomeApplied || len(res.Reads) != 2 {
		t.Fatalf("transfer result = %+v", res)
	}
	if txn.DecodeBalance(res.Reads[0].Value) != -5 || txn.DecodeBalance(res.Reads[1].Value) != 5 {
		t.Fatalf("balances after transfer = %+v", res.Reads)
	}
	get := txn.Txn{Client: 1, Seq: 2, Kind: txn.KindGet, Parts: []uint16{0},
		Ops: []txn.KeyOp{{Part: 0, Key: "a"}, {Part: 0, Key: "missing"}}}
	_, res = execSMTxn(t, sm, get)
	if res.Outcome != txn.OutcomeApplied {
		t.Fatalf("get outcome = %d", res.Outcome)
	}
	if !res.Reads[0].Found || txn.DecodeBalance(res.Reads[0].Value) != -5 {
		t.Fatalf("get read = %+v", res.Reads[0])
	}
	if res.Reads[1].Found {
		t.Fatal("missing key reported found")
	}
}

func TestSMTxnNotInvolvedAndRedirect(t *testing.T) {
	// A replica sharing a ring but not participating replies "not
	// involved"; a warming replica redirects with wrong-epoch.
	tr := txn.Txn{Client: 1, Seq: 1, Kind: txn.KindPut, Parts: []uint16{1},
		Ops: []txn.KeyOp{{Part: 1, Key: "k", Value: []byte("v")}}}
	bystander := NewSM(0, NewHashPartitioner(2))
	res, trr := execSMTxn(t, bystander, tr)
	if res.status != statusOK || trr.Outcome != txn.OutcomeNotInvolved {
		t.Fatalf("bystander reply = %+v / %+v", res, trr)
	}
	warming := NewSMAt(1, NewHashPartitioner(2), 3, true)
	res, _ = execSMTxn(t, warming, tr)
	if res.status != statusWrongEpoch {
		t.Fatalf("warming replica status = %d, want wrong-epoch redirect", res.status)
	}
}

func TestSMTxnCASSinglePartition(t *testing.T) {
	sm := NewSM(0, NewHashPartitioner(1))
	sm.Data().Put("k", []byte("old"))
	// Mismatch: expected value differs — reply carries the actual reads.
	cas := txn.Txn{Client: 1, Seq: 1, Kind: txn.KindCAS, Parts: []uint16{0},
		Ops: []txn.KeyOp{{Part: 0, Key: "k", Expect: []byte("wrong"), Value: []byte("new")}}}
	_, res := execSMTxn(t, sm, cas)
	if res.Outcome != txn.OutcomeFailed {
		t.Fatalf("mismatched CAS outcome = %d", res.Outcome)
	}
	if len(res.Reads) != 1 || !res.Reads[0].Found || string(res.Reads[0].Value) != "old" {
		t.Fatalf("mismatched CAS reads = %+v", res.Reads)
	}
	if v, _ := sm.Data().Get("k"); string(v) != "old" {
		t.Fatal("mismatched CAS mutated state")
	}
	// Match: swap applies; nil New deletes.
	cas.Seq = 2
	cas.Ops[0].Expect = []byte("old")
	_, res = execSMTxn(t, sm, cas)
	if res.Outcome != txn.OutcomeApplied {
		t.Fatalf("matching CAS outcome = %d", res.Outcome)
	}
	if v, _ := sm.Data().Get("k"); string(v) != "new" {
		t.Fatalf("after CAS = %q", v)
	}
	del := txn.Txn{Client: 1, Seq: 3, Kind: txn.KindCAS, Parts: []uint16{0},
		Ops: []txn.KeyOp{{Part: 0, Key: "k", Expect: []byte("new"), Value: nil}}}
	_, res = execSMTxn(t, sm, del)
	if res.Outcome != txn.OutcomeApplied {
		t.Fatalf("deleting CAS outcome = %d", res.Outcome)
	}
	if _, ok := sm.Data().Get("k"); ok {
		t.Fatal("deleting CAS left the key")
	}
}

// echoExchanger stands in for the vote exchange in single-SM tests: the
// combined verdict is just the local vote.
type echoExchanger struct{}

func (echoExchanger) Exchange(client, seq uint64, parts []uint16, own byte) byte { return own }

func TestSMSnapshotCarriesVoteHistory(t *testing.T) {
	sm := NewSM(0, NewHashPartitioner(2))
	sm.SetTxnExchanger(echoExchanger{})
	sm.Data().Put("k", []byte("old"))
	cas := txn.Txn{Client: 9, Seq: 4, Kind: txn.KindCAS, Parts: []uint16{0, 1},
		Ops: []txn.KeyOp{{Part: 0, Key: "k", Expect: []byte("old"), Value: []byte("new")},
			{Part: 1, Key: "other", Expect: nil, Value: []byte("x")}}}
	if _, res := execSMTxn(t, sm, cas); res.Outcome != txn.OutcomeApplied {
		t.Fatalf("CAS outcome = %d", res.Outcome)
	}
	if v, ok := sm.TxnVote(9, 4); !ok || v != txn.VoteOK {
		t.Fatalf("own vote = %d %v", v, ok)
	}
	snap := sm.Snapshot()
	if snap[0] != snapshotV4 {
		t.Fatalf("snapshot version = %d", snap[0])
	}
	sm2 := NewSM(0, NewHashPartitioner(2))
	sm2.Restore(snap)
	if v, ok := sm2.TxnVote(9, 4); !ok || v != txn.VoteOK {
		t.Fatalf("restored vote = %d %v — vote history lost across snapshot", v, ok)
	}
	if !bytes.Equal(sm2.Snapshot(), snap) {
		t.Fatal("snapshot not stable across restore")
	}
}

// pickKeys returns n distinct keys owned by partition part under p.
func pickKeys(t *testing.T, p Partitioner, part, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		k := fmt.Sprintf("txnkey%05d", i)
		if p.PartitionOf(k) == part {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d keys on partition %d", n, part)
	}
	return out
}

func txnExecOnce(t *testing.T, cl *Client, v routeView, seq uint64, tx txn.Txn, rings []msg.RingID) map[int]result {
	t.Helper()
	replies, err := cl.execTxn(v.epoch, seq, tx, rings)
	if err != nil {
		t.Fatalf("execTxn: %v", err)
	}
	return replies
}

// TestTxnDuplicateRetryDoesNotDoubleApply is the ambiguous-timeout
// regression: the client re-proposes the SAME sequence number on a
// DIFFERENT ring (the global ring instead of the partition's own), as the
// sticky retry does after a replan. The replicas deliver the command a
// second time through the other ring's merge — the cross-ring dedup
// bitmap must answer from the result cache instead of applying twice.
func TestTxnDuplicateRetryDoesNotDoubleApply(t *testing.T) {
	d := testDeploy(t, true, 2)
	cl := d.NewClient()
	defer cl.Close()
	v := cl.viewFor()
	keys := pickKeys(t, v.partitioner, 0, 2)
	tx := txn.Txn{Client: cl.smr.ID(), Seq: cl.smr.Reserve(), Kind: txn.KindTransfer, Parts: []uint16{0},
		Ops: []txn.KeyOp{{Part: 0, Key: keys[0], Delta: -5}, {Part: 0, Key: keys[1], Delta: 5}}}

	first := txnExecOnce(t, cl, v, tx.Seq, tx, []msg.RingID{v.rings[0]})
	if first[0].status != statusOK {
		t.Fatalf("first attempt status = %d", first[0].status)
	}
	// Re-propose the identical command on the global ring. The global
	// ring's coordinator has never seen this (client, seq), so the
	// proposal is ordered and delivered — the replica-side bitmap is the
	// only thing standing between us and a double transfer.
	second := txnExecOnce(t, cl, v, tx.Seq, tx, []msg.RingID{v.global})
	if second[0].status != statusOK {
		t.Fatalf("duplicate attempt status = %d", second[0].status)
	}
	if !bytes.Equal(first[0].value, second[0].value) {
		t.Fatal("duplicate reply differs from cached original")
	}
	for i, want := range []int64{-5, 5} {
		raw, err := cl.Read(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := txn.DecodeBalance(raw); got != want {
			t.Fatalf("balance[%d] = %d, want %d — transfer applied more than once", i, got, want)
		}
	}
}

// TestTxnInvertedArrivalAppliesOnce is the inverted-arrival variant: the
// old sequence number shows up on the global ring only after the client
// has already executed a LATER command there. The deterministic merge
// does not preserve one client's sequence order across rings, so a
// replica may see the re-proposed command at a merge position before OR
// after its partition-ring copy — the dedup bitmap must make both
// interleavings apply the transfer exactly once. The client may get the
// cached result back, or silence (when every replica is past the stale
// head); either way state moves exactly once and any reply equals the
// original.
func TestTxnInvertedArrivalAppliesOnce(t *testing.T) {
	restore := execTimeout
	execTimeout = 500 * time.Millisecond
	defer func() { execTimeout = restore }()

	d := testDeploy(t, true, 2)
	cl := d.NewClient()
	defer cl.Close()
	v := cl.viewFor()
	keys := pickKeys(t, v.partitioner, 0, 4)
	seqA := cl.smr.Reserve()
	txA := txn.Txn{Client: cl.smr.ID(), Seq: seqA, Kind: txn.KindTransfer, Parts: []uint16{0},
		Ops: []txn.KeyOp{{Part: 0, Key: keys[0], Delta: -5}, {Part: 0, Key: keys[1], Delta: 5}}}
	first := txnExecOnce(t, cl, v, seqA, txA, []msg.RingID{v.rings[0]})
	if first[0].status != statusOK {
		t.Fatalf("seqA status = %d", first[0].status)
	}
	seqB := cl.smr.Reserve()
	txB := txn.Txn{Client: cl.smr.ID(), Seq: seqB, Kind: txn.KindTransfer, Parts: []uint16{0},
		Ops: []txn.KeyOp{{Part: 0, Key: keys[2], Delta: -3}, {Part: 0, Key: keys[3], Delta: 3}}}
	if r := txnExecOnce(t, cl, v, seqB, txB, []msg.RingID{v.global}); r[0].status != statusOK {
		t.Fatalf("seqB status = %d", r[0].status)
	}
	// Re-propose seqA on the global ring, out of sequence order.
	replies, err := cl.execTxn(v.epoch, seqA, txA, []msg.RingID{v.global})
	switch {
	case errors.Is(err, smr.ErrTimeout):
		// Every replica was already past the stale head: silent drop.
	case err == nil:
		// A replica answered — from its dedup cache, or by executing the
		// command at its first-arrival merge position. Both must produce
		// the original result.
		if !bytes.Equal(replies[0].value, first[0].value) {
			t.Fatalf("inverted re-delivery reply differs from original:\n got %x\nwant %x",
				replies[0].value, first[0].value)
		}
	default:
		t.Fatal(err)
	}
	for i, want := range []int64{-5, 5, -3, 3} {
		raw, err := cl.Read(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := txn.DecodeBalance(raw); got != want {
			t.Fatalf("balance[%d] = %d, want %d — stale command re-applied", i, got, want)
		}
	}
}

// TestStoreMultiKeyOps drives the public multi-key API end to end across
// two partitions sharing the global ring.
func TestStoreMultiKeyOps(t *testing.T) {
	d := testDeploy(t, true, 2)
	cl := d.NewClient()
	defer cl.Close()

	if err := cl.MultiPut([]Entry{
		{Key: "mk-a", Value: []byte("1")},
		{Key: "mk-b", Value: []byte("2")},
		{Key: "mk-c", Value: []byte("3")},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.MultiGet([]string{"mk-a", "mk-b", "mk-c", "mk-ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got["mk-a"]) != "1" || string(got["mk-c"]) != "3" {
		t.Fatalf("MultiGet = %v", got)
	}

	fromBal, toBal, err := cl.Transfer("acct-x", "acct-y", 40)
	if err != nil {
		t.Fatal(err)
	}
	if fromBal != -40 || toBal != 40 {
		t.Fatalf("transfer balances = %d/%d", fromBal, toBal)
	}

	ok, err := cl.CompareAndSwapAcross([]CASOp{
		{Key: "mk-a", Expect: []byte("1"), New: []byte("one")},
		{Key: "mk-b", Expect: []byte("2"), New: []byte("two")},
	})
	if err != nil || !ok {
		t.Fatalf("CAS = %v, %v", ok, err)
	}
	ok, err = cl.CompareAndSwapAcross([]CASOp{
		{Key: "mk-a", Expect: []byte("stale"), New: []byte("nope")},
		{Key: "mk-c", Expect: []byte("3"), New: []byte("three")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("mismatched CAS reported applied")
	}
	v, err := cl.Read("mk-c")
	if err != nil || string(v) != "3" {
		t.Fatalf("mk-c after failed CAS = %q, %v — partial apply", v, err)
	}
	v, err = cl.Read("mk-a")
	if err != nil || string(v) != "one" {
		t.Fatalf("mk-a = %q, %v", v, err)
	}
}
