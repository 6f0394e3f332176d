package multiring

import (
	"testing"

	"mrp/internal/msg"
	"mrp/internal/ringpaxos"
)

// BenchmarkLearnerMerge measures the deterministic merge's per-delivery
// cost on the steady-state path: two subscribed rings, one single-entry
// instance consumed per turn. Run with -benchmem; docs/ARCHITECTURE.md
// records the allocation sweep's before/after.

// benchSource is a DecisionSource fed by the benchmark.
type benchSource struct {
	ring msg.RingID
	ch   chan ringpaxos.Decided
}

func (s *benchSource) Ring() msg.RingID                    { return s.ring }
func (s *benchSource) Decisions() <-chan ringpaxos.Decided { return s.ch }

func BenchmarkLearnerMerge(b *testing.B) {
	srcs := []*benchSource{
		{ring: 1, ch: make(chan ringpaxos.Decided, 1024)},
		{ring: 2, ch: make(chan ringpaxos.Decided, 1024)},
	}
	l := NewLearner(1, srcs[0], srcs[1])
	l.Start()
	defer l.Stop()

	stop := make(chan struct{})
	defer close(stop)
	for _, s := range srcs {
		go func(s *benchSource) {
			entry := []msg.Entry{{Proposer: 1, Seq: 1, Data: []byte("op")}}
			for inst := msg.Instance(1); ; inst++ {
				select {
				case s.ch <- ringpaxos.Decided{Ring: s.ring, Instance: inst, Value: msg.Value{Batch: entry}}:
				case <-stop:
					return
				}
			}
		}(s)
	}

	out := l.Deliveries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		<-out
	}
}

// TestLearnerMergeAllocationPin pins the steady-state merge allocation-free:
// a warm Learner.run turn delivers an entry without a heap allocation, so
// a new per-delivery allocation anywhere in the merge loop fails here.
func TestLearnerMergeAllocationPin(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed pin")
	}
	if got := testing.Benchmark(BenchmarkLearnerMerge).AllocsPerOp(); got != 0 {
		t.Errorf("steady-state merge allocates: %d allocs/op, want 0", got)
	}
}
