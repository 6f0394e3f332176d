package dlog

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/transport"
)

// --- codec ---

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []op{
		{kind: opAppend, log: 3, data: []byte("entry")},
		{kind: opMultiAppend, logs: []LogID{0, 2, 5}, data: []byte("x")},
		{kind: opRead, log: 1, pos: 42},
		{kind: opTrim, log: 7, pos: 9},
	}
	for _, o := range ops {
		got, err := decodeOp(o.encode())
		if err != nil {
			t.Fatalf("%d: %v", o.kind, err)
		}
		if got.kind != o.kind || got.log != o.log || got.pos != o.pos ||
			!bytes.Equal(got.data, o.data) || len(got.logs) != len(o.logs) {
			t.Fatalf("round trip %+v -> %+v", o, got)
		}
	}
	if _, err := decodeOp(nil); err == nil {
		t.Fatal("nil should fail")
	}
	if _, err := decodeOp([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	r := result{
		status:    statusOK,
		positions: []logPos{{log: 1, pos: 10}, {log: 2, pos: 3}},
		data:      []byte("d"),
	}
	got, err := decodeResult(r.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.status != statusOK || len(got.positions) != 2 ||
		got.positions[1].pos != 3 || string(got.data) != "d" {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := decodeResult([]byte{1}); err == nil {
		t.Fatal("truncated should fail")
	}
}

// --- SM ---

func testSM(sync bool) *SM {
	fast := storage.DiskModel{SyncLatency: time.Microsecond, Bandwidth: 1 << 40, BufferBytes: 1 << 30}
	return NewSM(SMConfig{
		Disks:      map[LogID]*storage.Disk{0: storage.NewDisk(fast), 1: storage.NewDisk(fast)},
		SyncWrites: sync,
	})
}

func exec(t testing.TB, sm *SM, o op) result {
	t.Helper()
	res, err := decodeResult(sm.Execute(o.encode()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSMAppendPositionsMonotone(t *testing.T) {
	sm := testSM(false)
	for i := uint64(0); i < 10; i++ {
		res := exec(t, sm, op{kind: opAppend, log: 0, data: []byte{byte(i)}})
		if res.positions[0].pos != i {
			t.Fatalf("pos = %d, want %d", res.positions[0].pos, i)
		}
	}
	if sm.Tail(0) != 10 {
		t.Fatalf("tail = %d", sm.Tail(0))
	}
	// Independent logs have independent positions.
	res := exec(t, sm, op{kind: opAppend, log: 1, data: []byte("x")})
	if res.positions[0].pos != 0 {
		t.Fatalf("log 1 pos = %d", res.positions[0].pos)
	}
}

func TestSMMultiAppend(t *testing.T) {
	sm := testSM(false)
	exec(t, sm, op{kind: opAppend, log: 0, data: []byte("a")})
	res := exec(t, sm, op{kind: opMultiAppend, logs: []LogID{0, 1}, data: []byte("m")})
	if len(res.positions) != 2 {
		t.Fatalf("positions = %+v", res.positions)
	}
	if res.positions[0].pos != 1 || res.positions[1].pos != 0 {
		t.Fatalf("positions = %+v", res.positions)
	}
}

func TestSMReadAndTrim(t *testing.T) {
	sm := testSM(false)
	for i := 0; i < 5; i++ {
		exec(t, sm, op{kind: opAppend, log: 0, data: []byte{byte('a' + i)}})
	}
	res := exec(t, sm, op{kind: opRead, log: 0, pos: 2})
	if res.status != statusOK || string(res.data) != "c" {
		t.Fatalf("read = %+v", res)
	}
	if exec(t, sm, op{kind: opRead, log: 0, pos: 99}).status != statusOutOfRange {
		t.Fatal("read past tail should be out of range")
	}
	exec(t, sm, op{kind: opTrim, log: 0, pos: 2})
	if exec(t, sm, op{kind: opRead, log: 0, pos: 2}).status != statusTrimmed {
		t.Fatal("read at trimmed position should fail")
	}
	res = exec(t, sm, op{kind: opRead, log: 0, pos: 3})
	if res.status != statusOK || string(res.data) != "d" {
		t.Fatalf("read after trim = %+v", res)
	}
	// Appends continue from the old tail.
	res = exec(t, sm, op{kind: opAppend, log: 0, data: []byte("f")})
	if res.positions[0].pos != 5 {
		t.Fatalf("pos after trim = %d", res.positions[0].pos)
	}
}

func TestSMSnapshotRestore(t *testing.T) {
	sm := testSM(false)
	for i := 0; i < 7; i++ {
		exec(t, sm, op{kind: opAppend, log: 0, data: []byte{byte(i)}})
	}
	exec(t, sm, op{kind: opTrim, log: 0, pos: 1})
	exec(t, sm, op{kind: opAppend, log: 1, data: []byte("z")})
	snap := sm.Snapshot()

	sm2 := testSM(false)
	sm2.Restore(snap)
	if sm2.Tail(0) != 7 || sm2.Tail(1) != 1 {
		t.Fatalf("restored tails = %d %d", sm2.Tail(0), sm2.Tail(1))
	}
	res := exec(t, sm2, op{kind: opRead, log: 0, pos: 2})
	if res.status != statusOK || res.data[0] != 2 {
		t.Fatalf("restored read = %+v", res)
	}
	if exec(t, sm2, op{kind: opRead, log: 0, pos: 0}).status != statusTrimmed {
		t.Fatal("trim position not restored")
	}
	if !bytes.Equal(sm2.Snapshot(), snap) {
		t.Fatal("snapshot unstable")
	}
}

func TestSMGarbageOp(t *testing.T) {
	sm := testSM(false)
	res, err := decodeResult(sm.Execute([]byte{0xFF}))
	if err != nil || res.status != statusError {
		t.Fatalf("garbage -> %+v, %v", res, err)
	}
}

// --- end-to-end ---

func testDeploy(t *testing.T, logs int, sync bool) *Deployment {
	t.Helper()
	net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
	d, err := Deploy(DeployConfig{
		Net:          net,
		Logs:         logs,
		Servers:      3,
		SyncWrites:   sync,
		StorageMode:  storage.InMemory,
		DiskModel:    storage.DiskModel{SyncLatency: 10 * time.Microsecond, Bandwidth: 1 << 40, BufferBytes: 1 << 30},
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

func TestDLogEndToEnd(t *testing.T) {
	d := testDeploy(t, 2, false)
	cl := d.NewClient()
	defer cl.Close()

	p0, err := cl.Append(0, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 0 {
		t.Fatalf("pos = %d", p0)
	}
	p1, err := cl.Append(0, []byte("second"))
	if err != nil || p1 != 1 {
		t.Fatalf("pos = %d, %v", p1, err)
	}
	v, err := cl.Read(0, 0)
	if err != nil || string(v) != "first" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if _, err := cl.Read(0, 10); err != ErrOutOfRange {
		t.Fatalf("read past tail = %v", err)
	}
	if err := cl.Trim(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(0, 0); err != ErrTrimmed {
		t.Fatalf("read trimmed = %v", err)
	}
}

func TestDLogMultiAppendAtomic(t *testing.T) {
	d := testDeploy(t, 3, false)
	cl := d.NewClient()
	defer cl.Close()
	if _, err := cl.Append(1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	pos, err := cl.MultiAppend([]LogID{0, 1, 2}, []byte("multi"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 3 {
		t.Fatalf("positions = %v", pos)
	}
	if pos[0] != 0 || pos[1] != 1 || pos[2] != 0 {
		t.Fatalf("positions = %v", pos)
	}
	// The multi-appended entry is readable in every log.
	for _, l := range []LogID{0, 1, 2} {
		v, err := cl.Read(l, pos[l])
		if err != nil || string(v) != "multi" {
			t.Fatalf("log %d read = %q, %v", l, v, err)
		}
	}
}

func TestDLogConcurrentWritersUniquePositions(t *testing.T) {
	d := testDeploy(t, 1, false)
	const writers = 3
	const perWriter = 20
	type res struct {
		pos uint64
		err error
	}
	results := make(chan res, writers*perWriter)
	for w := 0; w < writers; w++ {
		cl := d.NewClient()
		defer cl.Close()
		go func(cl *Client) {
			for i := 0; i < perWriter; i++ {
				p, err := cl.Append(0, []byte("w"))
				results <- res{p, err}
			}
		}(cl)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < writers*perWriter; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if seen[r.pos] {
			t.Fatalf("duplicate position %d", r.pos)
		}
		seen[r.pos] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("positions = %d", len(seen))
	}
}

func TestDLogServersConverge(t *testing.T) {
	d := testDeploy(t, 2, false)
	cl := d.NewClient()
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if _, err := cl.Append(LogID(i%2), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.MultiAppend([]LogID{0, 1}, []byte("fin")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s0 := d.Servers[0].SM.Snapshot()
		s1 := d.Servers[1].SM.Snapshot()
		s2 := d.Servers[2].SM.Snapshot()
		if bytes.Equal(s0, s1) && bytes.Equal(s1, s2) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("servers diverged")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDLogSyncWritesCharged(t *testing.T) {
	d := testDeploy(t, 1, true)
	cl := d.NewClient()
	defer cl.Close()
	if _, err := cl.Append(0, []byte("sync")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		syncOps, _, _ := d.Servers[0].Disks[0].Stats()
		if syncOps > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no sync disk write recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDLogTrimSurvivesRecovery is a regression test for trim state across
// crash recovery: a log is trimmed while a server is down, the survivors
// checkpoint (their snapshots carry the trim base), and after the server
// recovers from the transferred checkpoint a read below the trim position
// must still return ErrTrimmed — not resurrect dropped entries or report
// out-of-range.
func TestDLogTrimSurvivesRecovery(t *testing.T) {
	d := testDeploy(t, 1, false)
	cl := d.NewClient()
	defer cl.Close()

	for i := 0; i < 10; i++ {
		if _, err := cl.Append(0, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	d.CrashServer(2)
	// Trim happens while the server is down, so it can only learn the trim
	// through the recovered checkpoint (or replayed suffix).
	if err := cl.Trim(0, 4); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if _, err := cl.Append(0, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	d.Servers[0].Replica.Checkpoint()
	d.Servers[1].Replica.Checkpoint()
	if err := d.RecoverServer(2); err != nil {
		t.Fatal(err)
	}
	// Wait for the recovered server to converge with a survivor.
	deadline := time.Now().Add(15 * time.Second)
	for !bytes.Equal(d.Servers[0].SM.Snapshot(), d.Servers[2].SM.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatal("recovered server diverged")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Ask the recovered server's state machine directly (a client read
	// keeps the first reply, which could come from a survivor).
	res := exec(t, d.Servers[2].SM, op{kind: opRead, log: 0, pos: 2})
	if res.status != statusTrimmed {
		t.Fatalf("read below trim on recovered server = %+v, want trimmed", res)
	}
	res = exec(t, d.Servers[2].SM, op{kind: opRead, log: 0, pos: 7})
	if res.status != statusOK || string(res.data) != "7" {
		t.Fatalf("read above trim on recovered server = %+v", res)
	}
	if tail := d.Servers[2].SM.Tail(0); tail != 15 {
		t.Fatalf("recovered tail = %d", tail)
	}
	// The end-to-end path agrees.
	if _, err := cl.Read(0, 1); err != ErrTrimmed {
		t.Fatalf("client read below trim = %v", err)
	}
}

// TestDLogCrashAndRecoverServer exercises the Section 5.2 recovery protocol
// on the log service: a server dies, appends continue on the majority, the
// survivors checkpoint, and the server recovers to an identical state.
func TestDLogCrashAndRecoverServer(t *testing.T) {
	d := testDeploy(t, 2, false)
	cl := d.NewClient()
	defer cl.Close()

	for i := 0; i < 10; i++ {
		if _, err := cl.Append(LogID(i%2), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	d.CrashServer(2)
	for i := 10; i < 25; i++ {
		if _, err := cl.Append(LogID(i%2), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Survivors checkpoint so the recovering server can transfer state.
	d.Servers[0].Replica.Checkpoint()
	d.Servers[1].Replica.Checkpoint()

	if err := d.RecoverServer(2); err != nil {
		t.Fatal(err)
	}
	pos, err := cl.MultiAppend([]LogID{0, 1}, []byte("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	// The reply may come from server 1 before servers 0 and 2 apply the
	// append, so wait until both have passed its positions before
	// comparing their states.
	deadline := time.Now().Add(15 * time.Second)
	for _, srv := range []int{0, 2} {
		for _, l := range []LogID{0, 1} {
			for d.Servers[srv].SM.Tail(l) <= pos[l] {
				if time.Now().After(deadline) {
					t.Fatalf("server %d log %d: tail %d never passed %d", srv, l, d.Servers[srv].SM.Tail(l), pos[l])
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	if !bytes.Equal(d.Servers[0].SM.Snapshot(), d.Servers[2].SM.Snapshot()) {
		t.Fatal("recovered server diverged")
	}
	// The recovered server serves reads with correct positions.
	for _, l := range []LogID{0, 1} {
		if tail := d.Servers[2].SM.Tail(l); tail != d.Servers[0].SM.Tail(l) {
			t.Fatalf("log %d: tails diverged: %d vs %d", l, tail, d.Servers[0].SM.Tail(l))
		}
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
			if strings.HasPrefix(string(a), "dlog-client-") {
				return &closeCounter{Endpoint: ep, closed: &closed}, nil
			}
			return ep, nil
		},
		Logs:        1,
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
	if _, err := cl.Append(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if got := closed.Load(); got != 1 {
		t.Fatalf("client endpoint closed %d times, want 1", got)
	}
}

// TestClientSharedAcrossGoroutines drives one client from 8 goroutines at
// once, each appending to the log and reading its own entries back at the
// positions it was given. Run under -race it also checks the client's
// shared state.
func TestClientSharedAcrossGoroutines(t *testing.T) {
	d := testDeploy(t, 2, false)
	cl := d.NewClient()
	defer cl.Close()
	const workers, appends = 8, 5
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := LogID(g % 2)
			for i := 0; i < appends; i++ {
				want := fmt.Sprintf("w%d-%d", g, i)
				pos, err := cl.Append(l, []byte(want))
				if err != nil {
					t.Errorf("worker %d append: %v", g, err)
					return
				}
				if v, err := cl.Read(l, pos); err != nil || string(v) != want {
					t.Errorf("worker %d read %d@%d = %q, %v; want %q", g, l, pos, v, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
