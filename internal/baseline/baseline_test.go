package baseline

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"mrp/internal/netsim"
	"mrp/internal/storage"
)

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []op{
		{kind: opRead, key: "k"},
		{kind: opWrite, key: "k", value: []byte("v")},
		{kind: opScan, key: "a", limit: 10},
		{kind: opAppend, value: []byte("entry")},
	}
	for _, o := range ops {
		got, err := decodeOp(o.encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.kind != o.kind || got.key != o.key || !bytes.Equal(got.value, o.value) || got.limit != o.limit {
			t.Fatalf("round trip %+v -> %+v", o, got)
		}
	}
	if _, err := decodeOp(nil); err == nil {
		t.Fatal("nil should fail")
	}
	if _, err := decodeOp([]byte{1, 0xFF, 0xFF}); err == nil {
		t.Fatal("truncated should fail")
	}
}

func TestEntriesCodec(t *testing.T) {
	in := []kvEntry{{key: "a", value: []byte("1")}, {key: "b", value: nil}}
	got, err := decodeEntries(encodeEntries(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].key != "a" || string(got[0].value) != "1" {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := decodeEntries([]byte{statusNotFound}); err == nil {
		t.Fatal("bad status should fail")
	}
}

func newCass(t *testing.T) *Cassandra {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	c := NewCassandra(CassandraConfig{Net: net, Partitions: 3, Replicas: 3})
	t.Cleanup(func() {
		c.Stop()
		net.Close()
	})
	return c
}

func TestCassandraReadWrite(t *testing.T) {
	c := newCass(t)
	cl := c.NewClient()
	defer cl.Close()
	if err := cl.Insert("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Read("k1")
	if err != nil || string(v) != "v1" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if _, err := cl.Read("missing"); err != ErrNotFound {
		t.Fatalf("missing read = %v", err)
	}
	if err := cl.Update("k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Consistency ONE: reads converge eventually, not immediately.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := cl.Read("k1")
		if err == nil && string(v) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("update never visible: %q", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cl.ReadModifyWrite("k1", []byte("v3")); err != nil {
		t.Fatal(err)
	}
}

func TestCassandraAsyncReplication(t *testing.T) {
	c := newCass(t)
	cl := c.NewClient()
	defer cl.Close()
	if err := cl.Insert("key", []byte("val")); err != nil {
		t.Fatal(err)
	}
	// Eventually every replica of the owning partition holds the value.
	p := c.part.PartitionOf("key")
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, s := range c.servers[p] {
			if _, ok := s.data.Get("key"); !ok {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replication did not propagate")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCassandraScan(t *testing.T) {
	c := newCass(t)
	cl := c.NewClient()
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if err := cl.Insert(fmt.Sprintf("s%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := cl.Scan("s05", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("scan = %d entries", len(entries))
	}
	if entries[0].Key != "s05" {
		t.Fatalf("first = %q", entries[0].Key)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Key >= entries[i].Key {
			t.Fatal("scan not sorted")
		}
	}
}

func TestMySQLBasic(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	m := NewMySQL(MySQLConfig{Net: net, DiskScale: 0.001})
	t.Cleanup(func() {
		m.Stop()
		net.Close()
	})
	cl := m.NewClient()
	defer cl.Close()
	if err := cl.Insert("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Read("a")
	if err != nil || string(v) != "1" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if _, err := cl.Read("nope"); err != ErrNotFound {
		t.Fatal("missing key should be not found")
	}
	for i := 0; i < 10; i++ {
		if err := cl.Insert(fmt.Sprintf("m%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := cl.Scan("m00", 5)
	if err != nil || len(entries) != 5 {
		t.Fatalf("scan = %d, %v", len(entries), err)
	}
	if err := cl.ReadModifyWrite("a", []byte("2")); err != nil {
		t.Fatal(err)
	}
}

func TestBookkeeperAppendQuorum(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	bk := NewBookkeeper(BookkeeperConfig{
		Net:        net,
		FlushEvery: 5 * time.Millisecond,
		DiskModel:  storage.DiskModel{SyncLatency: 100 * time.Microsecond, Bandwidth: 1 << 40, BufferBytes: 1 << 30},
	})
	t.Cleanup(func() {
		bk.Stop()
		net.Close()
	})
	cl := bk.NewClient()
	defer cl.Close()
	start := time.Now()
	if err := cl.Append([]byte("entry-1")); err != nil {
		t.Fatal(err)
	}
	// Latency must include the batch wait (at least part of FlushEvery).
	if time.Since(start) > 5*time.Second {
		t.Fatal("append too slow")
	}
	// Concurrent appends all complete.
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- cl.Append(bytes.Repeat([]byte("x"), 1024))
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBookkeeperBatchingAmortizesDisk(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	bk := NewBookkeeper(BookkeeperConfig{
		Net:        net,
		FlushEvery: 20 * time.Millisecond,
		DiskModel:  storage.DiskModel{SyncLatency: time.Millisecond, Bandwidth: 1 << 40, BufferBytes: 1 << 30},
	})
	t.Cleanup(func() {
		bk.Stop()
		net.Close()
	})
	cl := bk.NewClient()
	defer cl.Close()
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cl.Append([]byte("e"))
		}()
	}
	wg.Wait()
	// An append returns after an ack quorum, so a bookie outside it may
	// still be journaling: wait until every bookie has written all 40
	// one-byte entries. Then 40 appends with aggressive batching must have
	// needed far fewer than 40 journal writes on each bookie.
	for i, b := range bk.bookies {
		deadline := time.Now().Add(5 * time.Second)
		for {
			syncOps, _, written := b.disk.Stats()
			if written == 40 {
				if syncOps == 0 || syncOps >= 40 {
					t.Fatalf("bookie %d: journal writes = %d, want batched (1..39)", i, syncOps)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("bookie %d journaled %d of 40 bytes", i, written)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
