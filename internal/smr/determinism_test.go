package smr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/storage"
)

// TestCheckpointDeterminism drives two fresh replicas with the identical
// delivery stream and requires their persisted checkpoints to be
// byte-identical. Checkpoints are compared by content during recovery and
// collision handling, so any map-iteration order leaking into the encoding
// (the dedup table holds one entry per client) is a real divergence, not a
// cosmetic one. With 64 clients, two independently built maps iterate in
// the same order with vanishing probability — this test fails almost
// surely if encodeDedup ever regresses to unsorted iteration.
func TestCheckpointDeterminism(t *testing.T) {
	mk := func() (*Replica, *storage.CheckpointStore) {
		ck := storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk))
		r := NewReplica(ReplicaConfig{SM: newRegSM(), Ckpt: ck})
		return r, ck
	}
	r1, ck1 := mk()
	r2, ck2 := mk()

	// 64 clients, 3 commands each, alternating over two rings. ReplyTo is
	// left empty so apply never needs a transport.
	var deliveries []multiring.Delivery
	next := map[msg.RingID]msg.Instance{}
	for seq := uint64(1); seq <= 3; seq++ {
		for client := uint64(1); client <= 64; client++ {
			op, err := json.Marshal(regOp{Kind: "set", K: fmt.Sprintf("k%03d", client), V: fmt.Sprintf("v%d.%d", client, seq)})
			if err != nil {
				t.Fatal(err)
			}
			ring := msg.RingID(1 + client%2)
			next[ring]++
			cmd := Command{ClientID: client, Seq: seq, Op: op}
			deliveries = append(deliveries, multiring.Delivery{
				Ring:          ring,
				Instance:      next[ring],
				Entry:         msg.Entry{Data: cmd.Encode()},
				EndOfInstance: true,
			})
		}
	}
	for _, d := range deliveries {
		r1.apply(d)
		r2.apply(d)
	}
	r1.Checkpoint()
	r2.Checkpoint()

	c1, ok := ck1.Load()
	if !ok {
		t.Fatal("replica 1 saved no checkpoint")
	}
	c2, ok := ck2.Load()
	if !ok {
		t.Fatal("replica 2 saved no checkpoint")
	}
	if !reflect.DeepEqual(c1.Tuple, c2.Tuple) {
		t.Fatalf("checkpoint tuples diverged:\n  r1: %v\n  r2: %v", c1.Tuple, c2.Tuple)
	}
	if !bytes.Equal(c1.State, c2.State) {
		t.Fatalf("checkpoint state diverged: %d vs %d bytes (same delivery stream)", len(c1.State), len(c2.State))
	}

	// Re-encoding the same replica state must also be stable: Go
	// re-randomizes map iteration on every range statement, so even a
	// single replica checkpointing twice diverges from itself if the
	// encoding walks a map unsorted.
	r1.Checkpoint()
	c1b, ok := ck1.Load()
	if !ok {
		t.Fatal("replica 1 lost its checkpoint")
	}
	if !bytes.Equal(c1.State, c1b.State) {
		t.Fatal("re-encoding the same replica state produced different checkpoint bytes")
	}
}

// TestBatchCutDeterminism pins DETERMINISM invariant 8: where a proposer
// cuts the command stream into entries must never be observable in state.
// The same logical client stream is fed to three replicas under different
// cuts — every command its own entry (batch=1, the unbatched wire), each
// client's whole run as one batch (batch=N), and randomized cuts — and the
// replicas must produce byte-identical checkpoint *state* and identical
// replies. Only the applied tuple may differ: cuts change how many
// instances carried the stream, never what executed. The regSM results
// embed the global execution index ("ok:<n>"), so any reordering or
// double-execution shows up in the reply stream, not just the snapshot.
func TestBatchCutDeterminism(t *testing.T) {
	const clients, seqs = 48, 4

	// The logical stream: client-major, sequence order, each client pinned
	// to one of two rings. Client-major order keeps each client's run
	// contiguous on its ring, so a cut can group any prefix of the run
	// into one entry without changing the global command order.
	type logical struct {
		ring msg.RingID
		cmd  Command
	}
	var stream []logical
	for client := uint64(1); client <= clients; client++ {
		for seq := uint64(1); seq <= seqs; seq++ {
			op, err := json.Marshal(regOp{Kind: "set", K: fmt.Sprintf("k%03d", client), V: fmt.Sprintf("v%d.%d", client, seq)})
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, logical{
				ring: msg.RingID(1 + client%2),
				cmd:  Command{ClientID: client, Seq: seq, Op: op},
			})
		}
	}

	// cut turns the logical stream into a delivery stream, grouping up to
	// next() consecutive same-ring commands into one batch entry. A group
	// of one stays a plain command payload, exactly like the wire.
	cut := func(next func() int) []multiring.Delivery {
		var out []multiring.Delivery
		inst := map[msg.RingID]msg.Instance{}
		for i := 0; i < len(stream); {
			n := next()
			if n < 1 {
				n = 1
			}
			var group [][]byte
			ring := stream[i].ring
			for i < len(stream) && stream[i].ring == ring && len(group) < n {
				group = append(group, stream[i].cmd.Encode())
				i++
			}
			data := group[0]
			if len(group) > 1 {
				data = EncodeBatch(group)
			}
			inst[ring]++
			out = append(out, multiring.Delivery{
				Ring:          ring,
				Instance:      inst[ring],
				Entry:         msg.Entry{Data: data},
				EndOfInstance: true,
			})
		}
		return out
	}
	rng := rand.New(rand.NewSource(8)) // fixed seed: reproducible cuts
	variants := map[string][]multiring.Delivery{
		"batch=1": cut(func() int { return 1 }),
		"batch=N": cut(func() int { return seqs }),
		"random":  cut(func() int { return 1 + rng.Intn(seqs) }),
	}

	type replyRec struct {
		Client uint64
		Seq    uint64
		Result string
	}
	type outcome struct {
		state   []byte
		replies []replyRec
		ckpts   int
	}
	outcomes := make(map[string]outcome)
	for name, deliveries := range variants {
		ck := storage.NewCheckpointStore(storage.NewDisk(storage.NullDisk))
		r := NewReplica(ReplicaConfig{SM: newRegSM(), Ckpt: ck})
		var replies []replyRec
		r.OnExecute(func(cmd Command, result []byte) {
			replies = append(replies, replyRec{Client: cmd.ClientID, Seq: cmd.Seq, Result: string(result)})
		})
		for _, d := range deliveries {
			r.apply(d)
		}
		r.Checkpoint()
		c, ok := ck.Load()
		if !ok {
			t.Fatalf("%s: no checkpoint", name)
		}
		outcomes[name] = outcome{state: c.State, replies: replies, ckpts: len(deliveries)}
	}

	base := outcomes["batch=1"]
	if len(base.replies) != clients*seqs {
		t.Fatalf("batch=1 executed %d commands, want %d", len(base.replies), clients*seqs)
	}
	for name, o := range outcomes {
		if !bytes.Equal(o.state, base.state) {
			t.Errorf("%s: checkpoint state diverged from batch=1 (%d vs %d bytes)", name, len(o.state), len(base.state))
		}
		if !reflect.DeepEqual(o.replies, base.replies) {
			t.Errorf("%s: reply stream diverged from batch=1", name)
		}
	}
	// The cuts must actually have differed — fewer entries under larger
	// batches — or the test proved nothing.
	if n := outcomes["batch=N"].ckpts; n >= outcomes["batch=1"].ckpts {
		t.Fatalf("batch=N produced %d entries, batch=1 %d: cuts did not differ", n, outcomes["batch=1"].ckpts)
	}
}
