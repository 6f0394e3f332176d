package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// --- SortedMap ---

func TestSortedMapBasic(t *testing.T) {
	m := NewSortedMap()
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty map returned a value")
	}
	if m.Put("a", []byte("1")) {
		t.Fatal("first put reported existing")
	}
	if !m.Put("a", []byte("2")) {
		t.Fatal("second put did not report existing")
	}
	v, ok := m.Get("a")
	if !ok || string(v) != "2" {
		t.Fatalf("get = %q %v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	if !m.Delete("a") || m.Delete("a") {
		t.Fatal("delete semantics")
	}
	if m.Len() != 0 {
		t.Fatalf("len after delete = %d", m.Len())
	}
}

func TestSortedMapScanOrder(t *testing.T) {
	m := NewSortedMap()
	keys := []string{"d", "a", "c", "b", "e"}
	for _, k := range keys {
		m.Put(k, []byte(k))
	}
	got := m.Scan("b", "d", 0)
	want := []string{"b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i].Key != want[i] {
			t.Fatalf("scan[%d] = %q", i, got[i].Key)
		}
	}
	if n := len(m.Scan("a", "", 2)); n != 2 {
		t.Fatalf("limited scan = %d", n)
	}
	if n := len(m.Scan("a", "", 0)); n != 5 {
		t.Fatalf("unbounded scan = %d", n)
	}
}

// Property: SortedMap agrees with a reference map + sort.
func TestSortedMapMatchesReferenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewSortedMap()
		ref := make(map[string]string)
		for _, o := range ops {
			k := fmt.Sprintf("k%03d", o%200)
			switch (o / 200) % 3 {
			case 0, 1:
				v := fmt.Sprint(o)
				m.Put(k, []byte(v))
				ref[k] = v
			case 2:
				m.Delete(k)
				delete(ref, k)
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		var refKeys []string
		for k := range ref {
			refKeys = append(refKeys, k)
		}
		sort.Strings(refKeys)
		got := m.Scan("", "", 0)
		if len(got) != len(refKeys) {
			return false
		}
		for i, k := range refKeys {
			if got[i].Key != k || string(got[i].Value) != ref[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedMapLarge(t *testing.T) {
	m := NewSortedMap()
	rng := rand.New(rand.NewSource(5))
	const n = 5000
	perm := rng.Perm(n)
	for _, i := range perm {
		m.Put(fmt.Sprintf("%06d", i), []byte{1})
	}
	if m.Len() != n {
		t.Fatalf("len = %d", m.Len())
	}
	prev := ""
	count := 0
	m.Ascend(func(e Entry) bool {
		if e.Key <= prev {
			t.Fatalf("order violation: %q after %q", e.Key, prev)
		}
		prev = e.Key
		count++
		return true
	})
	if count != n {
		t.Fatalf("ascend visited %d", count)
	}
}

// --- Partitioners ---

func TestHashPartitioner(t *testing.T) {
	p := NewHashPartitioner(3)
	if p.N() != 3 {
		t.Fatal("N")
	}
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		pi := p.PartitionOf(fmt.Sprintf("key-%d", i))
		if pi < 0 || pi > 2 {
			t.Fatalf("partition %d", pi)
		}
		counts[pi]++
	}
	for i, c := range counts {
		if c < 500 {
			t.Fatalf("partition %d badly balanced: %v", i, counts)
		}
	}
	if len(p.PartitionsForRange("a", "b")) != 3 {
		t.Fatal("hash ranges must hit all partitions")
	}
	// Stable mapping.
	if p.PartitionOf("x") != p.PartitionOf("x") {
		t.Fatal("unstable mapping")
	}
}

func TestRangePartitioner(t *testing.T) {
	p := NewRangePartitioner([]string{"g", "p"})
	if p.N() != 3 {
		t.Fatal("N")
	}
	cases := map[string]int{"a": 0, "f": 0, "g": 1, "m": 1, "p": 2, "z": 2}
	for k, want := range cases {
		if got := p.PartitionOf(k); got != want {
			t.Fatalf("PartitionOf(%q) = %d, want %d", k, got, want)
		}
	}
	if got := p.PartitionsForRange("a", "f"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("range a-f = %v", got)
	}
	if got := p.PartitionsForRange("f", "q"); len(got) != 3 {
		t.Fatalf("range f-q = %v", got)
	}
	if got := p.PartitionsForRange("h", ""); len(got) != 2 || got[0] != 1 {
		t.Fatalf("range h-inf = %v", got)
	}
}

// --- Op / result codecs ---

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []op{
		{kind: opRead, key: "k"},
		{kind: opDelete, key: "k2"},
		{kind: opUpdate, key: "k", value: []byte("v")},
		{kind: opInsert, key: "k", value: nil},
		{kind: opScan, key: "a", to: "z", limit: 42},
		{kind: opBatch, batch: []op{
			{kind: opInsert, key: "x", value: []byte("1")},
			{kind: opUpdate, key: "y", value: []byte("2")},
		}},
	}
	for _, o := range ops {
		got, err := decodeOp(o.encode())
		if err != nil {
			t.Fatalf("%d: %v", o.kind, err)
		}
		if got.kind != o.kind || got.key != o.key || got.to != o.to || got.limit != o.limit {
			t.Fatalf("round trip %+v -> %+v", o, got)
		}
		if len(got.batch) != len(o.batch) {
			t.Fatalf("batch len %d", len(got.batch))
		}
	}
}

func TestOpCodecErrors(t *testing.T) {
	if _, err := decodeOp(nil); err == nil {
		t.Fatal("nil should fail")
	}
	if _, err := decodeOp([]byte{99}); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if _, err := decodeOp([]byte{byte(opRead), 0xFF}); err == nil {
		t.Fatal("truncated should fail")
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	r := result{
		status:    statusOK,
		partition: 7,
		value:     []byte("val"),
		entries:   []Entry{{Key: "a", Value: []byte("1")}, {Key: "b", Value: nil}},
		count:     3,
	}
	got, err := decodeResult(r.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.status != r.status || got.partition != 7 || string(got.value) != "val" ||
		len(got.entries) != 2 || got.entries[0].Key != "a" || got.count != 3 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := decodeResult([]byte{1}); err == nil {
		t.Fatal("truncated result should fail")
	}
}

// --- SM ---

func TestSMExecuteTable1Ops(t *testing.T) {
	sm := NewSM(0, NewHashPartitioner(1))
	// insert
	res, _ := decodeResult(sm.Execute(op{kind: opInsert, key: "k", value: []byte("v1")}.encode()))
	if res.status != statusOK {
		t.Fatal("insert failed")
	}
	// read
	res, _ = decodeResult(sm.Execute(op{kind: opRead, key: "k"}.encode()))
	if res.status != statusOK || string(res.value) != "v1" {
		t.Fatalf("read = %+v", res)
	}
	// update existing
	res, _ = decodeResult(sm.Execute(op{kind: opUpdate, key: "k", value: []byte("v2")}.encode()))
	if res.status != statusOK {
		t.Fatal("update failed")
	}
	// update missing -> not found (Table 1: "if existent")
	res, _ = decodeResult(sm.Execute(op{kind: opUpdate, key: "nope", value: []byte("x")}.encode()))
	if res.status != statusNotFound {
		t.Fatalf("update missing = %+v", res)
	}
	// delete
	res, _ = decodeResult(sm.Execute(op{kind: opDelete, key: "k"}.encode()))
	if res.status != statusOK {
		t.Fatal("delete failed")
	}
	res, _ = decodeResult(sm.Execute(op{kind: opRead, key: "k"}.encode()))
	if res.status != statusNotFound {
		t.Fatal("read after delete should be not found")
	}
	// garbage
	res, _ = decodeResult(sm.Execute([]byte{0xFF}))
	if res.status != statusError {
		t.Fatal("garbage should be an error")
	}
}

func TestSMSnapshotRestore(t *testing.T) {
	sm := NewSM(2, NewHashPartitioner(3))
	for i := 0; i < 50; i++ {
		sm.Data().Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprint(i)))
	}
	snap := sm.Snapshot()
	sm2 := NewSM(2, NewHashPartitioner(3))
	sm2.Restore(snap)
	if sm2.Data().Len() != 50 {
		t.Fatalf("restored len = %d", sm2.Data().Len())
	}
	v, ok := sm2.Data().Get("k07")
	if !ok || string(v) != "7" {
		t.Fatalf("restored k07 = %q %v", v, ok)
	}
	if !bytes.Equal(sm2.Snapshot(), snap) {
		t.Fatal("snapshot not stable across restore")
	}
}

// --- End-to-end deployment ---

func testDeploy(t *testing.T, global bool, partitions int) *Deployment {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	d, err := Deploy(DeployConfig{
		Net:          net,
		Partitions:   partitions,
		Replicas:     3,
		GlobalRing:   global,
		StorageMode:  storage.InMemory,
		SkipInterval: 5 * time.Millisecond,
		SkipRate:     200,
		RetryTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Stop()
		net.Close()
	})
	return d
}

func TestStoreEndToEndGlobalRing(t *testing.T) {
	d := testDeploy(t, true, 3)
	cl := d.NewClient()
	defer cl.Close()

	if err := cl.Insert("user01", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert("user02", []byte("bob")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Read("user01")
	if err != nil || string(v) != "alice" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if err := cl.Update("user01", []byte("alice2")); err != nil {
		t.Fatal(err)
	}
	v, _ = cl.Read("user01")
	if string(v) != "alice2" {
		t.Fatalf("after update = %q", v)
	}
	if _, err := cl.Read("ghost"); err != ErrNotFound {
		t.Fatalf("read missing = %v", err)
	}
	if err := cl.Delete("user02"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read("user02"); err != ErrNotFound {
		t.Fatal("deleted key still readable")
	}
}

func TestStoreScanAcrossPartitions(t *testing.T) {
	d := testDeploy(t, true, 3)
	cl := d.NewClient()
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if err := cl.Insert(fmt.Sprintf("user%02d", i), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := cl.Scan("user05", "user14", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("scan returned %d entries: %+v", len(entries), entries)
	}
	for i, e := range entries {
		want := fmt.Sprintf("user%02d", i+5)
		if e.Key != want {
			t.Fatalf("entry %d = %q, want %q", i, e.Key, want)
		}
	}
	// Limited scan.
	entries, err = cl.Scan("user00", "", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Fatalf("limited scan = %d", len(entries))
	}
}

func TestStoreScanIndependentRings(t *testing.T) {
	d := testDeploy(t, false, 3)
	cl := d.NewClient()
	defer cl.Close()
	for i := 0; i < 12; i++ {
		if err := cl.Insert(fmt.Sprintf("user%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := cl.Scan("user00", "user11", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Fatalf("scan = %d entries", len(entries))
	}
}

func TestStoreRangePartitionedScanTouchesSubset(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	part := NewRangePartitioner([]string{"user10", "user20"})
	d, err := Deploy(DeployConfig{
		Net:          net,
		Partitions:   3,
		Replicas:     3,
		Partitioner:  part,
		StorageMode:  storage.InMemory,
		RetryTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop(); net.Close() })
	cl := d.NewClient()
	defer cl.Close()
	for i := 0; i < 30; i++ {
		if err := cl.Insert(fmt.Sprintf("user%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A range within partition 0 only.
	entries, err := cl.Scan("user02", "user08", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Fatalf("scan = %d", len(entries))
	}
}

func TestStoreWriteBatch(t *testing.T) {
	d := testDeploy(t, false, 2)
	cl := d.NewClient()
	defer cl.Close()
	var batch []Entry
	for i := 0; i < 20; i++ {
		batch = append(batch, Entry{Key: fmt.Sprintf("b%02d", i), Value: []byte("v")})
	}
	n, err := cl.WriteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("batch applied %d", n)
	}
	v, err := cl.Read("b13")
	if err != nil || string(v) != "v" {
		t.Fatalf("read after batch = %q %v", v, err)
	}
}

func TestStorePreload(t *testing.T) {
	d := testDeploy(t, false, 3)
	var recs []Entry
	for i := 0; i < 50; i++ {
		recs = append(recs, Entry{Key: fmt.Sprintf("pre%02d", i), Value: []byte("x")})
	}
	d.Preload(recs)
	cl := d.NewClient()
	defer cl.Close()
	v, err := cl.Read("pre25")
	if err != nil || string(v) != "x" {
		t.Fatalf("preloaded read = %q %v", v, err)
	}
	// Preload respected partitioning: each replica only holds its shard.
	total := 0
	for _, hs := range d.Replicas {
		total += hs[0].SM.Data().Len()
	}
	if total != 50 {
		t.Fatalf("sum of shards = %d", total)
	}
}

func TestStoreReplicasConverge(t *testing.T) {
	d := testDeploy(t, true, 2)
	cl := d.NewClient()
	defer cl.Close()
	for i := 0; i < 30; i++ {
		if err := cl.Insert(fmt.Sprintf("c%02d", i), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		same := true
		for _, hs := range d.Replicas {
			s0 := hs[0].SM.Snapshot()
			for _, h := range hs[1:] {
				if !bytes.Equal(s0, h.SM.Snapshot()) {
					same = false
				}
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStoreCrashAndRecoverReplica(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	d, err := Deploy(DeployConfig{
		Net:          net,
		Partitions:   1,
		Replicas:     3,
		StorageMode:  storage.InMemory,
		RetryTimeout: 50 * time.Millisecond,
		TrimInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Stop(); net.Close() })
	cl := d.NewClient()
	defer cl.Close()

	for i := 0; i < 15; i++ {
		if err := cl.Insert(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d.CrashReplica(0, 2)
	for i := 15; i < 30; i++ {
		if err := cl.Insert(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Survivors checkpoint so the acceptors trim past the crash point.
	d.Replicas[0][0].Replica.Checkpoint()
	d.Replicas[0][1].Replica.Checkpoint()
	deadline := time.Now().Add(5 * time.Second)
	for d.TrimCoordinators()[0].Trims() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no trim")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.RecoverReplica(0, 2); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 35; i++ {
		if err := cl.Insert(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		s0 := d.Replicas[0][0].SM.Snapshot()
		s2 := d.Replicas[0][2].SM.Snapshot()
		if bytes.Equal(s0, s2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered replica did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// closeCounter counts the Close calls on an endpoint.
type closeCounter struct {
	transport.Endpoint
	closed *atomic.Int32
}

func (e *closeCounter) Close() error {
	e.closed.Add(1)
	return e.Endpoint.Close()
}

// TestClientCloseClosesEndpoint: closing a client closes the endpoint it
// was created on, so repeated client churn does not leak endpoints.
func TestClientCloseClosesEndpoint(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	var closed atomic.Int32
	d, err := Deploy(DeployConfig{
		EndpointFor: func(a transport.Addr) (transport.Endpoint, error) {
			ep := net.Endpoint(a)
			if strings.HasPrefix(string(a), "store-client-") {
				return &closeCounter{Endpoint: ep, closed: &closed}, nil
			}
			return ep, nil
		},
		Partitions:  1,
		StorageMode: storage.InMemory,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.Stop()
		net.Close()
	})
	cl := d.NewClient()
	if err := cl.Insert("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if got := closed.Load(); got != 1 {
		t.Fatalf("client endpoint closed %d times, want 1", got)
	}
}

// TestClientSharedAcrossGoroutines drives one client from 8 goroutines at
// once, each writing and reading back its own keys through every kind of
// call: single-key writes and reads, a cross-partition MultiPut and a
// scan. Run under -race it also checks the client's shared state.
func TestClientSharedAcrossGoroutines(t *testing.T) {
	d := testDeploy(t, true, 2)
	cl := d.NewClient()
	defer cl.Close()
	const workers, keys = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := func(i int) string { return fmt.Sprintf("g%d-k%d", g, i) }
			for i := 0; i < keys; i++ {
				if err := cl.Insert(key(i), []byte("v0")); err != nil {
					t.Errorf("insert %s: %v", key(i), err)
					return
				}
				want := fmt.Sprintf("v1-%d-%d", g, i)
				if err := cl.Update(key(i), []byte(want)); err != nil {
					t.Errorf("update %s: %v", key(i), err)
					return
				}
				if v, err := cl.Read(key(i)); err != nil || string(v) != want {
					t.Errorf("read %s = %q, %v; want %q", key(i), v, err, want)
					return
				}
			}
			multi := []Entry{{Key: key(keys), Value: []byte("m")}, {Key: key(keys + 1), Value: []byte("m")}}
			if err := cl.MultiPut(multi); err != nil {
				t.Errorf("worker %d multiput: %v", g, err)
				return
			}
			got, err := cl.Scan(key(0), key(keys+1), 0)
			if err != nil || len(got) != keys+2 {
				t.Errorf("worker %d scan = %d entries, %v; want %d", g, len(got), err, keys+2)
				return
			}
			for i, e := range got {
				if e.Key != key(i) {
					t.Errorf("worker %d scan entry %d = %q, want %q", g, i, e.Key, key(i))
				}
			}
		}(g)
	}
	wg.Wait()
}
