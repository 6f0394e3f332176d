package store

import (
	"testing"
	"time"

	"mrp/internal/netsim"
	"mrp/internal/storage"
)

// schemaOf snapshots the deployment's committed schema.
func schemaOf(t *testing.T, d *Deployment) Schema {
	t.Helper()
	d.mu.RLock()
	s, err := d.buildSchema()
	d.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaPublishLoadHash(t *testing.T) {
	d := testDeploy(t, true, 3)
	s := schemaOf(t, d)
	if s.Kind != "hash" || s.Partitions != 3 || !s.GlobalRing {
		t.Fatalf("schema = %+v", s)
	}
	if len(s.Replicas) != 3 || len(s.Replicas[0]) != 3 {
		t.Fatalf("replicas = %+v", s.Replicas)
	}
	p, err := s.PartitionerFor()
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt partitioner must agree with the deployment's.
	for _, k := range []string{"a", "user42", "zzz"} {
		if p.PartitionOf(k) != d.Partitioner().PartitionOf(k) {
			t.Fatalf("partitioner mismatch for %q", k)
		}
	}
}

func TestSchemaPublishLoadRange(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	part := NewRangePartitioner([]string{"m"})
	d, err := Deploy(DeployConfig{
		Net: net, Partitions: 2, Replicas: 3,
		Partitioner: part, StorageMode: storage.InMemory,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop(); net.Close() })
	s := schemaOf(t, d)
	if s.Kind != "range" || len(s.Bounds) != 1 || s.Bounds[0] != "m" {
		t.Fatalf("schema = %+v", s)
	}
	p, _ := s.PartitionerFor()
	if p.PartitionOf("a") != 0 || p.PartitionOf("z") != 1 {
		t.Fatal("range partitioner mismatch")
	}
}

// TestSchemaEpochAndRings checks the versioned-schema fields of a freshly
// deployed store: epoch 1, explicit per-partition rings, and global-ring
// membership flags.
func TestSchemaEpochAndRings(t *testing.T) {
	d := testDeploy(t, true, 3)
	s := schemaOf(t, d)
	if s.Epoch != 1 {
		t.Fatalf("epoch = %d", s.Epoch)
	}
	if len(s.Rings) != 3 || s.RingOf(0) != 1 || s.RingOf(2) != 3 {
		t.Fatalf("rings = %v", s.Rings)
	}
	if s.GlobalRingID != 4 {
		t.Fatalf("global ring = %d", s.GlobalRingID)
	}
	for p, on := range s.OnGlobal {
		if !on {
			t.Fatalf("partition %d not on global ring", p)
		}
	}
}

// TestAdoptReconfigFencesConcurrentPublisher checks that the deployment
// adopts only the epoch right after its committed one: a second adopt of
// the same epoch (a concurrent publisher) and an adopt that skips an epoch
// are refused and change nothing.
func TestAdoptReconfigFencesConcurrentPublisher(t *testing.T) {
	d := testDeploy(t, false, 2)
	first, rival := NewHashPartitioner(2), NewHashPartitioner(2)
	if !d.AdoptReconfig(2, first) {
		t.Fatal("adopt of the next epoch refused")
	}
	if d.AdoptReconfig(2, rival) {
		t.Fatal("second adopt of epoch 2 succeeded")
	}
	if d.AdoptReconfig(4, rival) {
		t.Fatal("adopt skipping epoch 3 succeeded")
	}
	if d.Epoch() != 2 || d.Partitioner() != Partitioner(first) {
		t.Fatalf("refused adopts changed the deployment: epoch %d, partitioner %p (first %p)",
			d.Epoch(), d.Partitioner(), first)
	}
}

// TestSchemaAssignRoundTrip checks that a split partitioner's slot
// assignment survives a round trip through the schema.
func TestSchemaAssignRoundTrip(t *testing.T) {
	p := NewRangePartitioner([]string{"g", "p"})
	split, err := p.Split("j", 3)
	if err != nil {
		t.Fatal(err)
	}
	s := Schema{Epoch: 2, Kind: "range", Partitions: 4, Bounds: split.Bounds(), Assign: split.Assignments()}
	rebuilt, err := s.PartitionerFor()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "g", "i", "j", "o", "p", "z"} {
		if rebuilt.PartitionOf(k) != split.PartitionOf(k) {
			t.Fatalf("rebuilt partitioner disagrees for %q: %d vs %d",
				k, rebuilt.PartitionOf(k), split.PartitionOf(k))
		}
	}
	// The moved range went to the new index; old slots kept theirs.
	if split.PartitionOf("i") != 1 || split.PartitionOf("j") != 3 || split.PartitionOf("z") != 2 {
		t.Fatalf("split assignment wrong: %v / %v", split.Bounds(), split.Assignments())
	}
	// Duplicate assignments are legal (a merge survivor owns several
	// slots), but malformed ones are still rejected.
	dup := Schema{Kind: "range", Partitions: 3, Bounds: split.Bounds(), Assign: []int{0, 0, 1, 2}}
	if _, err := dup.PartitionerFor(); err != nil {
		t.Fatalf("merge-shaped assignment rejected: %v", err)
	}
	bad := Schema{Kind: "range", Partitions: 4, Bounds: split.Bounds(), Assign: []int{0, -1, 1, 2}}
	if _, err := bad.PartitionerFor(); err == nil {
		t.Fatal("negative assignment accepted")
	}
	short := Schema{Kind: "range", Partitions: 4, Bounds: split.Bounds(), Assign: []int{0, 1}}
	if _, err := short.PartitionerFor(); err == nil {
		t.Fatal("short assignment accepted")
	}
}

func TestLoadSchemaErrors(t *testing.T) {
	bad := Schema{Kind: "range", Partitions: 3, Bounds: []string{"x"}}
	if _, err := bad.PartitionerFor(); err == nil {
		t.Fatal("inconsistent bounds should fail")
	}
	unknown := Schema{Kind: "consistent-hash"}
	if _, err := unknown.PartitionerFor(); err == nil {
		t.Fatal("unknown kind should fail")
	}
}
