package smr

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/transport"
)

// batchSeqBit is OR-ed into the proposal sequence number of a batch that a
// test proposes by hand. Command sequence numbers are small counters, and
// the coordinator deduplicates proposals by (proposer, seq): the top bit
// keeps a batch's proposal identity disjoint from every inner command's
// own identity, so a later direct retry of an inner command is never
// mistaken for a duplicate of the batch that carried the original.
const batchSeqBit = uint64(1) << 63

func TestBatchCodecRoundTrip(t *testing.T) {
	var payloads [][]byte
	var want []Command
	for i := uint64(1); i <= 5; i++ {
		c := Command{ClientID: 100 + i, Seq: i, ReplyTo: transport.Addr(fmt.Sprintf("cl-%d", i)), Op: []byte(fmt.Sprintf("op-%d", i))}
		payloads = append(payloads, c.Encode())
		want = append(want, c)
	}
	enc := EncodeBatch(payloads)
	if !IsBatch(enc) {
		t.Fatal("encoded batch not recognized")
	}
	got, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d commands, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ClientID != want[i].ClientID || got[i].Seq != want[i].Seq ||
			got[i].ReplyTo != want[i].ReplyTo || !bytes.Equal(got[i].Op, want[i].Op) {
			t.Fatalf("command %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Canonical: re-encoding the decoded commands reproduces the input.
	re := make([][]byte, len(got))
	for i, c := range got {
		re[i] = c.Encode()
	}
	if !bytes.Equal(EncodeBatch(re), enc) {
		t.Fatal("re-encode diverged from the original batch bytes")
	}
}

func TestBatchDecodeRejects(t *testing.T) {
	one := Command{ClientID: 1, Seq: 1, Op: []byte("x")}.Encode()
	valid := EncodeBatch([][]byte{one})
	cases := map[string][]byte{
		"nil":              nil,
		"short":            valid[:9],
		"zero commands":    EncodeBatch(nil),
		"trailing bytes":   append(append([]byte{}, valid...), 0),
		"truncated inner":  valid[:len(valid)-1],
		"bad inner":        EncodeBatch([][]byte{{1, 2, 3}}),
		"not a batch":      one,
		"count overstated": func() []byte { b := append([]byte{}, valid...); b[9] = 2; return b }(),
	}
	for name, b := range cases {
		if _, err := DecodeBatch(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A single command is not a batch: the replica must route it through
	// DecodeCommand unchanged.
	if IsBatch(one) {
		t.Fatal("plain command misdetected as batch")
	}
}

// TestBatchOptOutWireEquivalence pins the client's only send path: every
// Execute proposes its command unwrapped, under the command's own
// (proposer, seq) identity and in its plain Command encoding — with
// transport coalescing disabled and equally with it enabled for a lone
// command, which the network packs into a Batch packet and unpacks again.
func TestBatchOptOutWireEquivalence(t *testing.T) {
	for _, disabled := range []bool{true, false} {
		name := "enabled-single"
		if disabled {
			name = "disabled"
		}
		t.Run(name, func(t *testing.T) {
			net := netsim.New(netsim.WithBatch(transport.BatchPolicy{Disabled: disabled}))
			defer net.Close()
			prop := net.Endpoint("proposer")
			cl := NewClient(ClientConfig{
				ID:        42,
				Endpoint:  net.Endpoint("client"),
				Proposers: map[msg.RingID][]transport.Addr{1: {prop.Addr()}},
				Timeout:   300 * time.Millisecond,
			})
			defer cl.Close()
			go cl.Execute(1, []byte("payload")) //nolint // times out: nobody replies
			select {
			case env := <-prop.Inbox():
				p, ok := env.Msg.(*msg.Proposal)
				if !ok {
					t.Fatalf("got %T, want *msg.Proposal", env.Msg)
				}
				wantCmd := Command{ClientID: 42, Seq: 1, ReplyTo: "client", Op: []byte("payload")}
				if !bytes.Equal(p.Payload, wantCmd.Encode()) {
					t.Fatalf("payload diverged from the plain command encoding:\n got %x\nwant %x", p.Payload, wantCmd.Encode())
				}
				if p.ProposerID != 42 || p.Seq != 1 || p.Ring != 1 {
					t.Fatalf("proposal identity = (%d, %d) ring %d, want (42, 1) ring 1", p.ProposerID, p.Seq, p.Ring)
				}
				if IsBatch(p.Payload) {
					t.Fatal("command was wrapped in a batch")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("no proposal reached the proposer")
			}
		})
	}
}
