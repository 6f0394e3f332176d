package smr

import (
	"encoding/binary"
	"testing"

	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/transport"
)

// Allocation benchmarks for the steady-state delivery path: what one
// delivered entry costs in Replica.apply once the system is warm (dedup
// entry exists, lease inactive, no checkpoint due). Run with -benchmem;
// docs/ARCHITECTURE.md records the before/after of the allocation sweep.

// benchNullEndpoint discards sends: the benchmark measures the apply path,
// not the transport.
type benchNullEndpoint struct{}

func (benchNullEndpoint) Addr() transport.Addr                   { return "bench-null" }
func (benchNullEndpoint) Send(transport.Addr, msg.Message) error { return nil }
func (benchNullEndpoint) Inbox() <-chan transport.Envelope       { return nil }
func (benchNullEndpoint) Handle(func(transport.Envelope))        {}
func (benchNullEndpoint) Close() error                           { return nil }

// benchSM executes without allocating.
type benchSM struct{}

func (benchSM) Execute(op []byte) []byte { return op }
func (benchSM) Snapshot() []byte         { return nil }
func (benchSM) Restore([]byte)           {}

func newBenchReplica() *Replica {
	return NewReplica(ReplicaConfig{
		Node: multiring.NewNode(1, benchNullEndpoint{}),
		SM:   benchSM{},
	})
}

// benchPayload encodes one command whose Seq field (offset 8) the loop
// patches in place, so every delivery is a fresh, non-duplicate command
// without re-encoding.
func benchPayload() []byte {
	return Command{ClientID: 7, Seq: 0, ReplyTo: "bench-client", Op: []byte("op-payload")}.Encode()
}

// BenchmarkApplySingle is one single-command delivery per op: decode,
// dedup, execute, reply.
func BenchmarkApplySingle(b *testing.B) {
	r := newBenchReplica()
	payload := benchPayload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(payload[8:], uint64(i+1))
		r.apply(multiring.Delivery{
			Ring:          1,
			Instance:      msg.Instance(i + 1),
			Entry:         msg.Entry{Data: payload},
			EndOfInstance: true,
		})
	}
}

// TestApplyAllocationPin pins the steady-state delivery cost: after the
// response-arena pass a warm single-command delivery performs zero heap
// allocations and at most 48 amortized bytes per op (the arena slab and
// the occasional cmdScratch growth, spread over their lifetimes).
// Re-introducing a per-reply allocation — e.g. a fresh &msg.Response in
// applyCommand — fails this test.
func TestApplyAllocationPin(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed pin")
	}
	res := testing.Benchmark(BenchmarkApplySingle)
	if got := res.AllocsPerOp(); got > 0 {
		t.Errorf("steady-state apply allocates: %d allocs/op, want 0", got)
	}
	if got := res.AllocedBytesPerOp(); got > 48 {
		t.Errorf("steady-state apply allocates %d B/op, want <= 48 (amortized arena refill)", got)
	}
}

// BenchmarkApplyBatch16 is one 16-command batch delivery per op (the
// shape an EncodeBatch proposer produces); divide by 16 for per-command
// cost.
func BenchmarkApplyBatch16(b *testing.B) {
	const inner = 16
	r := newBenchReplica()
	payloads := make([][]byte, inner)
	for k := range payloads {
		payloads[k] = benchPayload()
	}
	batch := EncodeBatch(payloads)
	// Seq field offsets of the inner commands within the batch payload.
	seqOffs := make([]int, inner)
	off := batchHeaderLen
	for k := range seqOffs {
		clen := int(binary.BigEndian.Uint32(batch[off:]))
		seqOffs[k] = off + 4 + 8
		off += 4 + clen
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, so := range seqOffs {
			binary.BigEndian.PutUint64(batch[so:], uint64(i*inner+k+1))
		}
		r.apply(multiring.Delivery{
			Ring:          1,
			Instance:      msg.Instance(i + 1),
			Entry:         msg.Entry{Data: batch},
			EndOfInstance: true,
		})
	}
}
