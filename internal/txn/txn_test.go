package txn

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// sampleTxns returns one representative transaction per kind.
func sampleTxns() []Txn {
	return []Txn{
		{Client: 7, Seq: 42, Kind: KindGet, Parts: []uint16{0, 2},
			Ops: []KeyOp{{Part: 0, Key: "a"}, {Part: 2, Key: "zz"}}},
		{Client: 1, Seq: 2, Kind: KindPut, Parts: []uint16{1},
			Ops: []KeyOp{{Part: 1, Key: "k", Value: []byte("v")}, {Part: 1, Key: "k2", Value: []byte{}}}},
		{Client: 9, Seq: 3, Kind: KindCAS, Parts: []uint16{0, 1},
			Ops: []KeyOp{
				{Part: 0, Key: "x", Expect: []byte("old"), Value: []byte("new")},
				{Part: 1, Key: "y", Expect: nil, Value: []byte("created")},
				{Part: 1, Key: "z", Expect: []byte("gone"), Value: nil},
			}},
		{Client: 3, Seq: 100, Kind: KindTransfer, Parts: []uint16{0, 5},
			Ops: []KeyOp{{Part: 0, Key: "from", Delta: -7}, {Part: 5, Key: "to", Delta: 7}}},
	}
}

func TestTxnRoundTrip(t *testing.T) {
	for _, tx := range sampleTxns() {
		enc := tx.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("kind %d: decode: %v", tx.Kind, err)
		}
		re := got.Encode()
		if !bytes.Equal(enc, re) {
			t.Fatalf("kind %d: non-canonical re-encode", tx.Kind)
		}
		if got.Client != tx.Client || got.Seq != tx.Seq || got.Kind != tx.Kind {
			t.Fatalf("kind %d: header mismatch: %+v vs %+v", tx.Kind, got, tx)
		}
		if !reflect.DeepEqual(got.Parts, tx.Parts) {
			t.Fatalf("kind %d: parts mismatch", tx.Kind)
		}
		if len(got.Ops) != len(tx.Ops) {
			t.Fatalf("kind %d: ops mismatch", tx.Kind)
		}
	}
}

func TestTxnDecodeRejects(t *testing.T) {
	base := sampleTxns()[0]
	cases := map[string][]byte{
		"empty":          {},
		"unknown kind":   {0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 99},
		"trailing bytes": append(base.Encode(), 0),
	}
	// Unsorted participant set.
	bad := base
	bad.Parts = []uint16{2, 0}
	cases["unsorted parts"] = bad.Encode()
	// Op assigned outside the participant set.
	bad2 := base
	bad2.Ops = []KeyOp{{Part: 9, Key: "a"}}
	cases["unlisted part"] = bad2.Encode()
	for name, enc := range cases {
		if _, err := Decode(enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	rs := []Result{
		{Outcome: OutcomeApplied},
		{Outcome: OutcomeApplied, Reads: []KeyRead{
			{Key: "a", Found: true, Value: []byte("v")},
			{Key: "b", Found: false},
			{Key: "c", Found: true, Value: []byte{}},
		}},
		{Outcome: OutcomeFailed, Reads: []KeyRead{{Key: "x", Found: true, Value: []byte("actual")}}},
		{Outcome: OutcomeNotInvolved},
	}
	for _, r := range rs {
		enc := EncodeResult(r)
		got, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("outcome %d: decode: %v", r.Outcome, err)
		}
		if !bytes.Equal(enc, EncodeResult(got)) {
			t.Fatalf("outcome %d: non-canonical re-encode", r.Outcome)
		}
		if got.Outcome != r.Outcome || len(got.Reads) != len(r.Reads) {
			t.Fatalf("outcome %d: mismatch: %+v", r.Outcome, got)
		}
	}
	if _, err := DecodeResult(append(EncodeResult(rs[0]), 1)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestBalanceCodec(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		if got := DecodeBalance(EncodeBalance(v)); got != v {
			t.Errorf("balance %d round-tripped to %d", v, got)
		}
	}
	if DecodeBalance(nil) != 0 || DecodeBalance([]byte("short")) != 0 {
		t.Error("malformed balance should decode as zero")
	}
}

// fakeNet wires exchangers by direct Handle delivery: Send(addr, m)
// invokes the addressee's Handle on a separate goroutine, like the
// node's router would.
type fakeNet struct {
	mu    sync.Mutex
	peers map[transport.Addr]*Exchanger
}

func (n *fakeNet) send(from transport.Addr) func(transport.Addr, *msg.TxnVote) error {
	return func(to transport.Addr, m *msg.TxnVote) error {
		n.mu.Lock()
		peer := n.peers[to]
		n.mu.Unlock()
		if peer != nil {
			cp := *m
			go peer.Handle(transport.Envelope{From: from, Msg: &cp})
		}
		return nil
	}
}

func newPair(t *testing.T, ownVotes map[uint16]byte) (*Exchanger, *Exchanger) {
	t.Helper()
	net := &fakeNet{peers: make(map[transport.Addr]*Exchanger)}
	addrs := map[uint16]transport.Addr{0: "p0", 1: "p1"}
	resolve := func(p uint16) []transport.Addr { return []transport.Addr{addrs[p]} }
	mk := func(self uint16) *Exchanger {
		ex := NewExchanger(ExchangerConfig{
			Self:    self,
			Send:    net.send(addrs[self]),
			Resolve: resolve,
			OwnVote: func(client, seq uint64) (byte, bool) {
				v, ok := ownVotes[self]
				return v, ok
			},
		})
		net.mu.Lock()
		net.peers[addrs[self]] = ex
		net.mu.Unlock()
		return ex
	}
	a, b := mk(0), mk(1)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestExchangeUnanimous(t *testing.T) {
	for _, tc := range []struct {
		name    string
		votes   map[uint16]byte
		verdict byte
	}{
		{"both ok", map[uint16]byte{0: VoteOK, 1: VoteOK}, VoteOK},
		{"one mismatch", map[uint16]byte{0: VoteOK, 1: VoteMismatch}, VoteMismatch},
		{"one wrong epoch", map[uint16]byte{0: VoteWrongEpoch, 1: VoteOK}, VoteWrongEpoch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newPair(t, tc.votes)
			parts := []uint16{0, 1}
			var got0, got1 byte
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); got0 = a.Exchange(5, 9, parts, tc.votes[0]) }()
			go func() { defer wg.Done(); got1 = b.Exchange(5, 9, parts, tc.votes[1]) }()
			wg.Wait()
			if got0 != tc.verdict || got1 != tc.verdict {
				t.Fatalf("verdicts %d/%d, want %d on both sides", got0, got1, tc.verdict)
			}
		})
	}
}

// TestExchangePull exercises the pull path: participant 1 executes LATE —
// long after participant 0 pushed its vote (the push is lost to eviction
// on a fresh exchanger). The Want flag on 1's own push makes 0 answer
// from its vote history, so the late side still completes.
func TestExchangePull(t *testing.T) {
	votes := map[uint16]byte{0: VoteOK, 1: VoteOK}
	a, b := newPair(t, votes)
	parts := []uint16{0, 1}
	done0 := make(chan byte, 1)
	go func() { done0 <- a.Exchange(5, 9, parts, VoteOK) }()
	time.Sleep(20 * time.Millisecond)
	if got := b.Exchange(5, 9, parts, VoteOK); got != VoteOK {
		t.Fatalf("late side verdict %d", got)
	}
	if got := <-done0; got != VoteOK {
		t.Fatalf("early side verdict %d", got)
	}
}

func TestExchangeCloseUnblocks(t *testing.T) {
	a, _ := newPair(t, map[uint16]byte{0: VoteOK})
	done := make(chan byte, 1)
	go func() { done <- a.Exchange(1, 1, []uint16{0, 1}, VoteOK) }()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case v := <-done:
		if v != VoteWrongEpoch {
			t.Fatalf("close verdict %d, want abort", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Exchange did not unblock on Close")
	}
}
