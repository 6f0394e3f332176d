package msg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// allSamples returns one representative populated value of every message type.
func allSamples() []Message {
	return []Message{
		&Proposal{Ring: 3, ProposerID: 7, Seq: 42, Payload: []byte("hello")},
		&Phase1B{Ring: 1, Ballot: 9, From: 10, To: 20, Promises: 2,
			Voted: []VotedValue{{Instance: 11, VRnd: 3,
				Value: Value{Batch: []Entry{{Proposer: 1, Seq: 2, Data: []byte("x")}}}}}},
		&Phase2{Ring: 2, Ballot: 1, Instance: 5, Votes: 1,
			Value: Value{Batch: []Entry{{Proposer: 1, Seq: 1, Data: []byte("a")}, {Proposer: 2, Seq: 9, Data: []byte("bb")}}}},
		&Phase2{Ring: 2, Ballot: 1, Instance: 6, Votes: 2,
			Value: Value{Skip: true, SkipTo: 100}},
		&Decision{Ring: 2, Instance: 5, Origin: 3,
			Value: Value{Batch: []Entry{{Proposer: 3, Seq: 4, Data: []byte("a")}}}},
		&LearnReq{Ring: 4, From: 1, To: 99},
		&LearnResp{Ring: 4, Trimmed: 7, Items: []DecidedItem{
			{Instance: 8, Value: Value{Batch: []Entry{{Proposer: 5, Seq: 6, Data: []byte("v")}}}},
			{Instance: 9, Value: Value{Skip: true, SkipTo: 12}},
		}},
		&TrimQuery{Ring: 5, Seq: 77},
		&TrimReply{Ring: 5, Seq: 77, Replica: 2, SafeInstance: 1000},
		&TrimCmd{Ring: 5, UpTo: 900},
		&CkptQuery{Seq: 1},
		&CkptReply{Seq: 1, Replica: 9, Tuple: []RingInstance{{1, 10}, {2, 5}}},
		&CkptFetch{Seq: 2},
		&CkptData{Seq: 2, Tuple: []RingInstance{{1, 10}}, State: []byte("state")},
		&Response{ClientID: 1, Seq: 2, Result: []byte("ok")},
		&TxnVote{ClientID: 1, Seq: 2, Part: 3, Vote: 1, Want: true},
		&Batch{Msgs: []Message{
			&TrimCmd{Ring: 1, UpTo: 5},
			&Proposal{Ring: 1, ProposerID: 2, Seq: 3, Payload: []byte("p")},
		}},
		&SkipReq{Ring: 6, To: 4500, Hops: 1},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range allSamples() {
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T round trip mismatch:\n in: %+v\nout: %+v", m, m, got)
		}
	}
}

func TestSizeMatchesEncoding(t *testing.T) {
	for _, m := range allSamples() {
		b := Marshal(m)
		if m.Size() != len(b) {
			t.Errorf("%T: Size()=%d but len(Marshal)=%d", m, m.Size(), len(b))
		}
	}
}

func TestEmptyPayloads(t *testing.T) {
	cases := []Message{
		&Proposal{},
		&Phase1B{},
		&Phase2{},
		&Decision{},
		&LearnResp{},
		&CkptReply{},
		&CkptData{},
		&Response{},
		&Batch{},
	}
	for _, m := range cases {
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal empty: %v", m, err)
		}
		if got.Type() != m.Type() {
			t.Errorf("%T: type mismatch", m)
		}
		if m.Size() != len(b) {
			t.Errorf("%T: empty Size()=%d len=%d", m, m.Size(), len(b))
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := Unmarshal([]byte{0}); err == nil {
		t.Error("type 0 should fail")
	}
	if _, err := Unmarshal([]byte{byte(maxType)}); err == nil {
		t.Error("out-of-range type should fail")
	}
	// Truncations of every sample must fail, never panic.
	for _, m := range allSamples() {
		b := Marshal(m)
		for cut := 1; cut < len(b); cut++ {
			if _, err := Unmarshal(b[:cut]); err == nil {
				// Truncation may still parse if trailing bytes were part of a
				// slice length... but our codec requires full consumption.
				t.Errorf("%T: truncation at %d/%d did not fail", m, cut, len(b))
			}
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	b := Marshal(&TrimCmd{Ring: 1, UpTo: 2})
	b = append(b, 0xFF)
	if _, err := Unmarshal(b); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestUnmarshalHugeLengthPrefix(t *testing.T) {
	// A LearnResp claiming 2^31 items must not allocate or panic.
	w := Writer{}
	w.U8(uint8(TLearnResp))
	w.U16(1)
	w.U64(0)
	w.U32(1 << 31)
	if _, err := Unmarshal(w.Buf); err == nil {
		t.Error("huge length prefix should fail")
	}
}

// Property: random proposals round-trip exactly and Size matches encoding.
func TestProposalRoundTripProperty(t *testing.T) {
	f := func(ring uint16, node uint32, seq uint64, payload []byte) bool {
		m := &Proposal{Ring: RingID(ring), ProposerID: NodeID(node), Seq: seq, Payload: payload}
		b := Marshal(m)
		if len(b) != m.Size() {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		g := got.(*Proposal)
		return g.Ring == m.Ring && g.ProposerID == m.ProposerID &&
			g.Seq == m.Seq && bytes.Equal(g.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: random batched Phase2 values round-trip.
func TestPhase2RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		nb := rng.Intn(5)
		batch := make([]Entry, nb)
		for j := range batch {
			batch[j] = Entry{Proposer: NodeID(rng.Uint32()), Seq: rng.Uint64(), Data: make([]byte, rng.Intn(64))}
			rng.Read(batch[j].Data)
		}
		m := &Phase2{
			Ring:     RingID(rng.Intn(100)),
			Ballot:   Ballot(rng.Intn(1000)),
			Instance: Instance(rng.Uint64()),
			Votes:    uint8(rng.Intn(8)),
			Value:    Value{Batch: batch},
		}
		b := Marshal(m)
		if len(b) != m.Size() {
			t.Fatalf("size mismatch: %d vs %d", len(b), m.Size())
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		g := got.(*Phase2)
		if g.Instance != m.Instance || len(g.Value.Batch) != nb {
			t.Fatalf("mismatch: %+v vs %+v", g, m)
		}
		for j := range batch {
			if !bytes.Equal(g.Value.Batch[j].Data, batch[j].Data) ||
				g.Value.Batch[j].Proposer != batch[j].Proposer ||
				g.Value.Batch[j].Seq != batch[j].Seq {
				t.Fatalf("batch[%d] mismatch", j)
			}
		}
	}
}

func TestValueHelpers(t *testing.T) {
	v := Value{}
	if !v.IsEmpty() {
		t.Error("zero value should be empty")
	}
	if v.PayloadBytes() != 0 {
		t.Error("zero value payload bytes != 0")
	}
	v = Value{Batch: []Entry{{Data: []byte("ab")}, {Data: []byte("c")}}}
	if v.IsEmpty() {
		t.Error("non-empty batch reported empty")
	}
	if v.PayloadBytes() != 3 {
		t.Errorf("payload bytes = %d, want 3", v.PayloadBytes())
	}
	v = Value{Skip: true, SkipTo: 9}
	if v.IsEmpty() {
		t.Error("skip value reported empty")
	}
}

func TestNestedBatch(t *testing.T) {
	inner := &Batch{Msgs: []Message{&TrimCmd{Ring: 1, UpTo: 1}}}
	outer := &Batch{Msgs: []Message{inner, &CkptQuery{Seq: 5}}}
	b := Marshal(outer)
	if len(b) != outer.Size() {
		t.Fatalf("size mismatch: %d vs %d", len(b), outer.Size())
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outer, got) {
		t.Fatalf("nested batch mismatch")
	}
}

func TestNewUnknownType(t *testing.T) {
	if New(0) != nil || New(TProposal+1) != nil || New(maxType) != nil || New(200) != nil {
		t.Error("New should return nil for unknown types")
	}
}
