package multiring

import (
	"testing"

	"mrp/internal/msg"
	"mrp/internal/ringpaxos"
)

// BenchmarkLearnerMerge measures the deterministic merge's per-delivery
// cost on the steady-state path: two subscribed rings pushing in turn,
// one single-entry instance consumed per push. Run with -benchmem;
// docs/ARCHITECTURE.md records the allocation sweep's before/after.
func BenchmarkLearnerMerge(b *testing.B) {
	srcs := []*pushSource{{ring: 1}, {ring: 2}}
	l := NewLearner(1, srcs[0], srcs[1])
	delivered := 0
	l.SetDeliver(func(Delivery) { delivered++ })
	entry := []msg.Entry{{Proposer: 1, Seq: 1, Data: []byte("op")}}
	var inst [2]msg.Instance
	push := func(i int) {
		inst[i]++
		srcs[i].push(ringpaxos.Decided{Ring: srcs[i].ring, Instance: inst[i], Value: msg.Value{Batch: entry}})
	}
	for i := 0; i < 64; i++ {
		push(i % 2) // grow the ring queues
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(i % 2)
	}
	b.StopTimer()
	if want := 64 + b.N; delivered != want {
		b.Fatalf("delivered %d, want %d", delivered, want)
	}
}

// TestLearnerMergeAllocationPin pins the steady-state merge allocation-free:
// a warm Push delivers an entry without a heap allocation, so
// a new per-delivery allocation anywhere in the merge loop fails here.
func TestLearnerMergeAllocationPin(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed pin")
	}
	if got := testing.Benchmark(BenchmarkLearnerMerge).AllocsPerOp(); got != 0 {
		t.Errorf("steady-state merge allocates: %d allocs/op, want 0", got)
	}
}
