package cluster_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/cluster"
	"mrp/internal/dlog"
	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/transport"
)

// service is what these tests drive of a deployed service: reach, crash
// and recover replica i of its first group, and tear it down.
type service struct {
	write   func(n int) error // n writes through a fresh client
	member  func(i int) *cluster.Member
	crash   func(i int)
	recover func(i int) error
	stop    func()
}

// services deploys each service with three replicas on endpointFor.
var services = []struct {
	name   string
	deploy func(endpointFor func(transport.Addr) (transport.Endpoint, error)) (service, error)
}{
	{"store", func(endpointFor func(transport.Addr) (transport.Endpoint, error)) (service, error) {
		d, err := store.Deploy(store.DeployConfig{
			EndpointFor:  endpointFor,
			Partitions:   1,
			Replicas:     3,
			StorageMode:  storage.InMemory,
			RetryTimeout: 50 * time.Millisecond,
		})
		if err != nil {
			return service{}, err
		}
		return service{
			write: func(n int) error {
				cl := d.NewClient()
				defer cl.Close()
				for k := 0; k < n; k++ {
					if err := cl.Insert(fmt.Sprintf("k%d", k), []byte("value")); err != nil {
						return err
					}
				}
				return nil
			},
			member:  func(i int) *cluster.Member { return d.ReplicaAt(0, i).Member },
			crash:   func(i int) { d.CrashReplica(0, i) },
			recover: func(i int) error { return d.RecoverReplica(0, i) },
			stop:    d.Stop,
		}, nil
	}},
	{"dlog", func(endpointFor func(transport.Addr) (transport.Endpoint, error)) (service, error) {
		d, err := dlog.Deploy(dlog.DeployConfig{
			EndpointFor:  endpointFor,
			Logs:         1,
			Servers:      3,
			StorageMode:  storage.InMemory,
			RetryTimeout: 50 * time.Millisecond,
			// Rate leveling keeps the idle common ring from stalling the
			// merge, so appends to log 0 are delivered.
			SkipInterval: 5 * time.Millisecond,
			SkipRate:     200,
		})
		if err != nil {
			return service{}, err
		}
		return service{
			write: func(n int) error {
				cl := d.NewClient()
				defer cl.Close()
				for k := 0; k < n; k++ {
					if _, err := cl.Append(0, []byte("value")); err != nil {
						return err
					}
				}
				return nil
			},
			member:  func(i int) *cluster.Member { return d.Servers[i].Member },
			crash:   d.CrashServer,
			recover: d.RecoverServer,
			stop:    d.Stop,
		}, nil
	}},
}

// closedInbox makes a recovery conversation fail at once.
var closedInbox = func() chan transport.Envelope {
	ch := make(chan transport.Envelope)
	close(ch)
	return ch
}()

// failingEndpoint cannot receive, so a recovery conversation on it fails,
// and it counts how often it was closed.
type failingEndpoint struct {
	transport.Endpoint
	closed *atomic.Int32
}

func (e *failingEndpoint) Inbox() <-chan transport.Envelope { return closedInbox }

func (e *failingEndpoint) Handle(func(transport.Envelope)) {}

func (e *failingEndpoint) Close() error {
	e.closed.Add(1)
	return e.Endpoint.Close()
}

// TestRecoverReplicaClosesEndpointOnFailure is the endpoint-leak
// regression for both services: when the recovery conversation fails, the
// transient "-recovery" endpoint must still be closed, or the address can
// never be reused (a second attempt used to panic on the leaked live
// endpoint). Recovering a replica index that does not exist is an error,
// not a panic.
func TestRecoverReplicaClosesEndpointOnFailure(t *testing.T) {
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
			var closed atomic.Int32
			s, err := svc.deploy(func(a transport.Addr) (transport.Endpoint, error) {
				ep := net.Endpoint(a)
				if strings.HasSuffix(string(a), "-recovery") {
					return &failingEndpoint{Endpoint: ep, closed: &closed}, nil
				}
				return ep, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				s.stop()
				net.Close()
			})

			s.crash(2)
			for attempt := 1; attempt <= 2; attempt++ {
				if err := s.recover(2); err == nil {
					t.Fatalf("attempt %d: recovery over a failing endpoint succeeded", attempt)
				}
				if got := closed.Load(); got != int32(attempt) {
					t.Fatalf("attempt %d: recovery endpoint closed %d times", attempt, got)
				}
			}
			for _, i := range []int{-1, 99} {
				if err := s.recover(i); err == nil {
					t.Fatalf("recovering replica %d succeeded", i)
				}
			}
		})
	}
}

// replicaCheckpoint frames replica checkpoint bytes: u32 dedupLen | dedup
// | u32 leaseLen | lease, with an empty state machine snapshot.
func replicaCheckpoint(dedup, lease []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(dedup)))
	b = append(b, dedup...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(lease)))
	return append(b, lease...)
}

// TestRecoverRejectsMalformedCheckpoint: a recovering replica whose
// freshest checkpoint does not decode must fail to recover, not resume
// past the checkpoint's tuple with empty state. Every failed attempt
// releases the replica's endpoint, so recovery from a sound checkpoint
// still succeeds afterwards.
func TestRecoverRejectsMalformedCheckpoint(t *testing.T) {
	// A dedup entry is a 28-byte header (client, seq, bits, result length)
	// followed by the result.
	entry := make([]byte, 28)
	binary.BigEndian.PutUint32(entry[24:], 8)
	malformed := []struct {
		name  string
		state []byte
	}{
		{"truncated frame", []byte{0, 0, 0}},
		{"truncated dedup header", replicaCheckpoint(make([]byte, 27), nil)},
		{"truncated dedup result", replicaCheckpoint(append(entry, 1, 2, 3, 4), nil)},
		{"malformed lease", replicaCheckpoint(nil, make([]byte, 5))},
	}
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
			s, err := svc.deploy(func(a transport.Addr) (transport.Endpoint, error) { return net.Endpoint(a), nil })
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				s.stop()
				net.Close()
			})

			m := s.member(2)
			m.Replica.Checkpoint()
			sound, ok := m.Ckpt.Load()
			if !ok {
				t.Fatal("replica 2 saved no checkpoint")
			}
			s.crash(2)
			for _, bad := range malformed {
				m.Ckpt.Save(storage.Checkpoint{Tuple: sound.Tuple, State: bad.state})
				if err := s.recover(2); err == nil {
					t.Fatalf("%s: recovery installed a malformed checkpoint", bad.name)
				}
			}
			m.Ckpt.Save(sound)
			if err := s.recover(2); err != nil {
				t.Fatalf("recovery from a sound checkpoint after failed attempts: %v", err)
			}
		})
	}
}

// TestRecoverRejectsTruncatedSnapshot: a checkpoint whose replica
// sections are sound but whose state-machine snapshot is cut short must
// not be installed, not even the entries decoded before the cut.
// StateMachine.Restore has no error return, so the replica refuses a
// snapshot that does not re-encode to itself.
func TestRecoverRejectsTruncatedSnapshot(t *testing.T) {
	for _, svc := range services {
		t.Run(svc.name, func(t *testing.T) {
			net := netsim.New(netsim.WithUniformLatency(20 * time.Microsecond))
			s, err := svc.deploy(func(a transport.Addr) (transport.Endpoint, error) { return net.Endpoint(a), nil })
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				s.stop()
				net.Close()
			})
			if err := s.write(4); err != nil {
				t.Fatal(err)
			}
			m := s.member(2)
			m.Replica.Checkpoint()
			sound, ok := m.Ckpt.Load()
			if !ok {
				t.Fatal("replica 2 saved no checkpoint")
			}
			s.crash(2)
			for _, cut := range []int{1, 3, 12} {
				m.Ckpt.Save(storage.Checkpoint{Tuple: sound.Tuple, State: sound.State[:len(sound.State)-cut]})
				if err := s.recover(2); err == nil {
					t.Fatalf("recovery installed a snapshot cut short by %d bytes", cut)
				}
			}
			m.Ckpt.Save(sound)
			if err := s.recover(2); err != nil {
				t.Fatalf("recovery from a sound checkpoint after failed attempts: %v", err)
			}
		})
	}
}

// bindWatch hands out endpoints and flags every Send a replica endpoint
// makes while another replica endpoint started with it has not been
// handed out yet — a message that, on a real network, nobody would be
// listening for.
type bindWatch struct {
	net *netsim.Network

	mu    sync.Mutex
	batch map[transport.Addr]bool // the watched batch's addresses not yet handed out
	early []string
}

// expect starts watching a batch of replica addresses.
func (w *bindWatch) expect(addrs ...transport.Addr) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.batch = make(map[transport.Addr]bool, len(addrs))
	for _, a := range addrs {
		w.batch[a] = true
	}
}

// endpointFor binds slowly, as a real listener may, so that a replica
// started before the rest of its batch is bound gets the time to send.
func (w *bindWatch) endpointFor(a transport.Addr) (transport.Endpoint, error) {
	ep := w.net.Endpoint(a)
	w.mu.Lock()
	watched := w.batch[a]
	w.mu.Unlock()
	if !watched {
		return ep, nil
	}
	time.Sleep(5 * time.Millisecond)
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.batch, a)
	return &watchedEndpoint{Endpoint: ep, w: w, batch: w.batch}, nil
}

// watchedEndpoint is a replica endpoint of one watched batch.
type watchedEndpoint struct {
	transport.Endpoint
	w     *bindWatch
	batch map[transport.Addr]bool
}

func (e *watchedEndpoint) Send(to transport.Addr, m msg.Message) error {
	e.w.mu.Lock()
	if n := len(e.batch); n > 0 {
		e.w.early = append(e.w.early, fmt.Sprintf("%s sent %T to %s with %d replica endpoint(s) still unbound", e.Addr(), m, to, n))
	}
	e.w.mu.Unlock()
	return e.Endpoint.Send(to, m)
}

func (w *bindWatch) check(t *testing.T) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.batch) > 0 {
		t.Fatalf("replica endpoints never handed out: %v", w.batch)
	}
	if len(w.early) > 0 {
		t.Fatalf("%d send(s) before every replica endpoint was bound, first: %s", len(w.early), w.early[0])
	}
}

func storeAddrs(p, replicas int) []transport.Addr {
	var out []transport.Addr
	for r := 0; r < replicas; r++ {
		out = append(out, transport.Addr(fmt.Sprintf("store-p%d-r%d", p, r)))
	}
	return out
}

// TestEndpointsBoundBeforeFirstSend: every replica a deployment starts
// together has its endpoint before any of them sends. Otherwise a ring
// coordinator's Phase 1 goes to a successor that does not exist yet, is
// dropped, and set-up waits out the retry timer.
func TestEndpointsBoundBeforeFirstSend(t *testing.T) {
	t.Run("store-deploy", func(t *testing.T) {
		w := &bindWatch{net: netsim.New()}
		defer w.net.Close()
		w.expect(append(storeAddrs(0, 3), storeAddrs(1, 3)...)...)
		d, err := store.Deploy(store.DeployConfig{
			EndpointFor: w.endpointFor,
			Partitions:  2,
			Replicas:    3,
			GlobalRing:  true,
			StorageMode: storage.InMemory,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		w.check(t)
	})
	t.Run("store-add-partition", func(t *testing.T) {
		w := &bindWatch{net: netsim.New()}
		defer w.net.Close()
		d, err := store.Deploy(store.DeployConfig{
			EndpointFor: w.endpointFor,
			Partitions:  2,
			Replicas:    3,
			Partitioner: store.NewRangePartitioner([]string{"m"}),
			StorageMode: storage.InMemory,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		next, err := d.Partitioner().(*store.RangePartitioner).Split("t", 2)
		if err != nil {
			t.Fatal(err)
		}
		w.expect(storeAddrs(2, 3)...)
		if _, _, err := d.AddPartition(next, 2, d.Epoch()+1); err != nil {
			t.Fatal(err)
		}
		w.check(t)
	})
	t.Run("dlog-deploy", func(t *testing.T) {
		w := &bindWatch{net: netsim.New()}
		defer w.net.Close()
		w.expect("dlog-s0", "dlog-s1", "dlog-s2")
		d, err := dlog.Deploy(dlog.DeployConfig{
			EndpointFor: w.endpointFor,
			Logs:        2,
			StorageMode: storage.InMemory,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		w.check(t)
	})
}
