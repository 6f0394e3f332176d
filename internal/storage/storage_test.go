package storage

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mrp/internal/msg"
)

func rec(b msg.Ballot, payload string) Record {
	return Record{Rnd: b, VRnd: b, Value: msg.Value{Batch: []msg.Entry{{Data: []byte(payload)}}}}
}

func TestLogPutGet(t *testing.T) {
	l := NewLog(InMemory)
	if err := l.Put(1, rec(1, "a")); err != nil {
		t.Fatal(err)
	}
	r, ok := l.Get(1)
	if !ok || string(r.Value.Batch[0].Data) != "a" {
		t.Fatalf("get = %+v, %v", r, ok)
	}
	if _, ok := l.Get(2); ok {
		t.Fatal("got record for missing instance")
	}
	if l.HighWatermark() != 1 || l.Len() != 1 {
		t.Fatalf("high=%d len=%d", l.HighWatermark(), l.Len())
	}
}

func TestLogTrim(t *testing.T) {
	l := NewLog(InMemory)
	for i := msg.Instance(1); i <= 10; i++ {
		if err := l.Put(i, rec(1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	l.Trim(5)
	if l.LowWatermark() != 5 {
		t.Fatalf("low = %d", l.LowWatermark())
	}
	if _, ok := l.Get(5); ok {
		t.Fatal("instance 5 should be trimmed")
	}
	if _, ok := l.Get(6); !ok {
		t.Fatal("instance 6 should survive")
	}
	// Re-inserting a trimmed instance must fail.
	if err := l.Put(3, rec(1, "y")); err == nil {
		t.Fatal("put below watermark should fail")
	}
	// Trimming backwards is a no-op.
	l.Trim(2)
	if l.LowWatermark() != 5 {
		t.Fatalf("low regressed to %d", l.LowWatermark())
	}
}

func TestLogRange(t *testing.T) {
	l := NewLog(InMemory)
	for i := msg.Instance(1); i <= 10; i++ {
		_ = l.Put(i, rec(msg.Ballot(i), "x"))
	}
	l.Trim(3)
	var got []msg.Instance
	trimmed := l.Range(1, 8, func(i msg.Instance, _ Record) {
		got = append(got, i)
	})
	if !trimmed {
		t.Fatal("range over trimmed prefix should report trimmed")
	}
	want := []msg.Instance{4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if l.Range(6, 8, func(msg.Instance, Record) {}) {
		t.Fatal("untrimmed range reported trimmed")
	}
}

// TestStageKeepsDecided: a vote staged after the instance was marked
// decided (a coordinator's retry reaching an acceptor behind the decision)
// leaves the record decided, with the decided value, so retransmission
// still serves it to a learner catching up.
func TestStageKeepsDecided(t *testing.T) {
	l := NewLog(InMemory)
	if _, err := l.Stage(7, rec(1, "v")); err != nil {
		t.Fatal(err)
	}
	l.MarkDecided(7, rec(1, "v").Value)
	if _, err := l.Stage(7, rec(2, "v")); err != nil {
		t.Fatal(err)
	}
	var served []string
	l.Range(7, 8, func(_ msg.Instance, r Record) {
		if r.Decided {
			served = append(served, string(r.Value.Batch[0].Data))
		}
	})
	if len(served) != 1 || served[0] != "v" {
		t.Fatalf("decided records served after a late vote = %v, want [v]", served)
	}
	if r, _ := l.Get(7); r.VRnd != 2 {
		t.Fatalf("late vote's round = %d, want 2", r.VRnd)
	}
}

func TestLogConcurrent(t *testing.T) {
	l := NewLog(InMemory)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				_ = l.Put(msg.Instance(base*250+i+1), rec(1, "v"))
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 1000 {
		t.Fatalf("len = %d, want 1000", l.Len())
	}
}

func TestModeStrings(t *testing.T) {
	names := map[Mode]string{
		InMemory: "In Memory",
		AsyncHDD: "Async Disk",
		AsyncSSD: "Async Disk (SSD)",
		SyncHDD:  "Sync Disk",
		SyncSSD:  "Sync Disk (SSD)",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if !SyncHDD.IsSync() || !SyncSSD.IsSync() || InMemory.IsSync() || AsyncHDD.IsSync() {
		t.Error("IsSync wrong")
	}
}

func TestSyncWriteLatency(t *testing.T) {
	model := DiskModel{SyncLatency: 5 * time.Millisecond, Bandwidth: 1 << 30}
	d := NewDisk(model)
	start := time.Now()
	d.SyncWrite(100)
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("sync write returned in %v, want >= 5ms", el)
	}
}

func TestSyncWritesQueue(t *testing.T) {
	// Two concurrent sync writes on one device must serialize.
	model := DiskModel{SyncLatency: 10 * time.Millisecond, Bandwidth: 1 << 30}
	d := NewDisk(model)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.SyncWrite(10)
		}()
	}
	wg.Wait()
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("2 serialized sync writes took %v, want >= 20ms", el)
	}
}

func TestAsyncWriteFastUntilBufferFull(t *testing.T) {
	model := DiskModel{Bandwidth: 1 << 20, BufferBytes: 1 << 20} // 1MB/s, 1MB buffer
	d := NewDisk(model)
	start := time.Now()
	d.AsyncWrite(512 << 10) // fits in buffer: immediate
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("buffered async write took %v", el)
	}
	start = time.Now()
	d.AsyncWrite(1 << 20) // overflows by ~512KB: must block ~0.5s
	if el := time.Since(start); el < 200*time.Millisecond {
		t.Fatalf("overflowing async write returned in %v, want blocking", el)
	}
}

func TestDiskStats(t *testing.T) {
	d := NewDisk(DiskModel{SyncLatency: time.Microsecond, Bandwidth: 1 << 30, BufferBytes: 1 << 30})
	d.SyncWrite(10)
	d.AsyncWrite(20)
	s, a, b := d.Stats()
	if s != 1 || a != 1 || b != 30 {
		t.Fatalf("stats = %d %d %d", s, a, b)
	}
}

func TestDiskModelScale(t *testing.T) {
	m := HDD.Scale(0.5)
	if m.SyncLatency != 2*time.Millisecond {
		t.Fatalf("scaled latency = %v", m.SyncLatency)
	}
	if m.Bandwidth != HDD.Bandwidth*2 {
		t.Fatalf("scaled bandwidth = %d", m.Bandwidth)
	}
	if HDD.Scale(0) != HDD {
		t.Fatal("scale 0 should be identity")
	}
}

func TestNilDiskIsNoop(t *testing.T) {
	var d *Disk
	d.SyncWrite(10)
	d.AsyncWrite(10)
}

func TestLogModesPersist(t *testing.T) {
	// All modes must store records retrievably; only service time differs.
	fast := DiskModel{SyncLatency: time.Microsecond, Bandwidth: 1 << 30, BufferBytes: 1 << 30}
	for _, mode := range []Mode{InMemory, AsyncHDD, AsyncSSD, SyncHDD, SyncSSD} {
		l := NewLogOnDisk(mode, NewDisk(fast))
		if err := l.Put(1, rec(2, "v")); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if _, ok := l.Get(1); !ok {
			t.Fatalf("%v: record missing", mode)
		}
	}
}

func TestCheckpointStore(t *testing.T) {
	s := NewCheckpointStore(NewDisk(NullDisk))
	if _, ok := s.Load(); ok {
		t.Fatal("empty store returned a checkpoint")
	}
	tuple := []msg.RingInstance{{Ring: 1, Instance: 10}, {Ring: 2, Instance: 5}}
	s.Save(Checkpoint{Tuple: tuple, State: []byte("s1")})
	ck, ok := s.Load()
	if !ok || string(ck.State) != "s1" {
		t.Fatalf("load = %+v, %v", ck, ok)
	}
	// Mutating the caller's tuple must not affect the stored copy.
	tuple[0].Instance = 999
	ck, _ = s.Load()
	if ck.Tuple[0].Instance != 10 {
		t.Fatal("stored tuple aliases caller slice")
	}
	s.Save(Checkpoint{Tuple: tuple, State: []byte("s2")})
	ck, _ = s.Load()
	if string(ck.State) != "s2" {
		t.Fatal("save did not replace")
	}
}

func TestTupleLE(t *testing.T) {
	a := []msg.RingInstance{{Ring: 1, Instance: 5}, {Ring: 2, Instance: 3}}
	b := []msg.RingInstance{{Ring: 1, Instance: 6}, {Ring: 2, Instance: 3}}
	if !TupleLE(a, b) {
		t.Fatal("a <= b expected")
	}
	if TupleLE(b, a) {
		t.Fatal("b <= a unexpected")
	}
	if !TupleLE(a, a) {
		t.Fatal("reflexivity")
	}
	// Rings absent from b are ignored (different subscription sets are
	// never compared in practice: replicas of one partition subscribe to
	// the same groups).
	c := []msg.RingInstance{{Ring: 9, Instance: 100}}
	if !TupleLE(c, a) {
		t.Fatal("disjoint rings should compare as <=")
	}
}

// Property: Predicate 1 of the paper — within a partition, checkpoint
// tuples ordered by round-robin delivery are totally ordered by TupleLE.
func TestTupleTotalOrderProperty(t *testing.T) {
	f := func(deltas []uint8) bool {
		// Simulate a replica taking checkpoints as it delivers messages
		// round-robin from rings 1..3; each checkpoint's tuple must be >=
		// the previous one.
		tuple := []msg.RingInstance{{Ring: 1, Instance: 0}, {Ring: 2, Instance: 0}, {Ring: 3, Instance: 0}}
		prev := []msg.RingInstance{{Ring: 1, Instance: 0}, {Ring: 2, Instance: 0}, {Ring: 3, Instance: 0}}
		ring := 0
		for _, d := range deltas {
			tuple[ring].Instance += msg.Instance(d % 4)
			ring = (ring + 1) % 3
			if !TupleLE(prev, tuple) {
				return false
			}
			prev = append([]msg.RingInstance(nil), tuple...)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleGet(t *testing.T) {
	tuple := []msg.RingInstance{{Ring: 1, Instance: 5}, {Ring: 7, Instance: 9}}
	if TupleGet(tuple, 7) != 9 {
		t.Fatal("TupleGet(7)")
	}
	if TupleGet(tuple, 3) != 0 {
		t.Fatal("TupleGet missing ring should be 0")
	}
}
