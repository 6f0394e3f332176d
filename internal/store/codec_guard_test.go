package store

import (
	"hash/fnv"
	"testing"

	"mrp/internal/msg"
)

// TestHashPartitionerMatchesFNV pins the inlined FNV-1a hash against
// hash/fnv: partition assignment decides data placement, so the
// allocation-free rewrite must produce bit-identical values or every
// existing deployment's keys would land on the wrong partition.
func TestHashPartitionerMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "user:42", "key-with-a-much-longer-suffix-0123456789", "\x00\xff\x80"}
	for _, n := range []int{1, 2, 7, 64} {
		p := NewHashPartitioner(n)
		for _, key := range keys {
			h := fnv.New32a()
			_, _ = h.Write([]byte(key))
			want := int(h.Sum32() % uint32(n))
			if got := p.PartitionOf(key); got != want {
				t.Errorf("PartitionOf(%q) with n=%d = %d, want %d (hash/fnv)", key, n, got, want)
			}
		}
	}
}

// TestTakePartitionerMalformed pins the wire-count guard of the
// snapshot-encoded range partitioner: a zero partition count must not
// size a slice of n-1 = -1 bounds, and a huge count must not
// pre-allocate before the input is known to hold it. Snapshots arrive
// over the network (CkptData), so both are one corrupt checkpoint away;
// the decoder must reject them.
func TestTakePartitionerMalformed(t *testing.T) {
	cases := map[string][]byte{
		"zero count":       {1, 0, 0, 0, 0},
		"huge count":       {1, 0xFF, 0xFF, 0xFF, 0xFF},
		"count over input": {1, 0, 0, 0, 9, 0, 2, 'a', 'b'},
		"truncated":        {1, 0, 0, 0},
	}
	for name, b := range cases {
		r := msg.NewReader(b)
		if takePartitioner(&r); r.Done() == nil {
			t.Errorf("%s: takePartitioner accepted malformed input %v", name, b)
		}
	}

	// The guard must not reject a valid encoding: round-trip a real
	// partitioner through the snapshot codec.
	rp := NewRangePartitioner([]string{"m"})
	var w msg.Writer
	appendPartitioner(&w, rp)
	r := msg.NewReader(w.Buf)
	got := takePartitioner(&r)
	if err := r.Done(); err != nil {
		t.Fatalf("round-trip failed: %v", err)
	}
	if got.N() != rp.N() || got.PartitionOf("a") != rp.PartitionOf("a") || got.PartitionOf("z") != rp.PartitionOf("z") {
		t.Errorf("round-tripped partitioner differs: %+v vs %+v", got, rp)
	}
}

// TestRestoreAcceptsOnlySnapshotV4 pins the single snapshot version: a
// snapshot under the retired v3 header restores to an empty shard, while
// the same bytes under the v4 header restore in full.
func TestRestoreAcceptsOnlySnapshotV4(t *testing.T) {
	sm := NewSM(0, NewHashPartitioner(1))
	sm.Data().Put("k", []byte("v"))
	snap := sm.Snapshot()
	for _, tc := range []struct {
		version byte
		want    int
	}{{3, 0}, {snapshotV4, 1}} {
		b := append([]byte{tc.version}, snap[1:]...)
		restored := NewSM(0, NewHashPartitioner(1))
		restored.Restore(b)
		if got := restored.Data().Len(); got != tc.want {
			t.Errorf("v%d header: restored %d entries, want %d", tc.version, got, tc.want)
		}
	}
}
