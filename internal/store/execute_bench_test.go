package store

import "testing"

// Allocation benchmarks for SM.Execute, the state machine's entry point
// for every ordered command: a warm key (present, owned, no
// reconfiguration in flight) updated or read over and over. Run with
// -benchmem.

// benchExecute executes one encoded op per iteration against a warm SM.
func benchExecute(b *testing.B, o op) {
	sm := NewSM(0, NewHashPartitioner(1))
	sm.Data().Put("user:42", []byte("value-0"))
	raw := o.encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.Execute(raw)
	}
}

func BenchmarkExecuteUpdate(b *testing.B) {
	benchExecute(b, op{kind: opUpdate, key: "user:42", value: []byte("value-1")})
}

func BenchmarkExecuteRead(b *testing.B) {
	benchExecute(b, op{kind: opRead, key: "user:42"})
}

// TestExecuteAllocationPin pins what a warm Update and a warm Read cost in
// SM.Execute: two allocations each, the decoded key string and the
// encoded reply, both of which outlive the call. A new per-command
// allocation on this path fails here.
func TestExecuteAllocationPin(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed pin")
	}
	for _, pin := range []struct {
		name  string
		bench func(*testing.B)
		want  int64
	}{
		{"update", BenchmarkExecuteUpdate, 2},
		{"read", BenchmarkExecuteRead, 2},
	} {
		if got := testing.Benchmark(pin.bench).AllocsPerOp(); got != pin.want {
			t.Errorf("warm %s: SM.Execute makes %d allocs/op, want %d", pin.name, got, pin.want)
		}
	}
}
