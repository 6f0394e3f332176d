package transport_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/tcpnet"
	"mrp/internal/transport"
)

// network opens one network of a transport per test and returns its
// endpoint factory; the test's cleanup closes everything.
type network struct {
	name string
	open func(t *testing.T) func(name string) transport.Endpoint
}

func networks() []network {
	return []network{
		{"netsim", func(t *testing.T) func(string) transport.Endpoint {
			n := netsim.New(netsim.WithUniformLatency(0))
			t.Cleanup(n.Close)
			return func(name string) transport.Endpoint { return n.Endpoint(transport.Addr(name)) }
		}},
		{"tcpnet", func(t *testing.T) func(string) transport.Endpoint {
			return func(string) transport.Endpoint {
				ep, err := tcpnet.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = ep.Close() })
				return ep
			}
		}},
	}
}

// recorder collects delivered sequence numbers per sender.
type recorder struct {
	mu   sync.Mutex
	seqs map[transport.Addr][]uint64
	n    atomic.Int64
}

func (r *recorder) handle(env transport.Envelope) {
	r.mu.Lock()
	if r.seqs == nil {
		r.seqs = make(map[transport.Addr][]uint64)
	}
	r.seqs[env.From] = append(r.seqs[env.From], env.Msg.(*msg.TrimQuery).Seq)
	r.mu.Unlock()
	r.n.Add(1)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func checkInOrder(t *testing.T, from transport.Addr, seqs []uint64, n int) {
	t.Helper()
	if len(seqs) != n {
		t.Fatalf("%s: %d messages delivered, want %d", from, len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("%s: message %d is seq %d", from, i, s)
		}
	}
}

// TestHandleDeliversQueuedFirst: messages that arrived before Handle reach
// the handler before Handle returns, in order, and later ones follow.
func TestHandleDeliversQueuedFirst(t *testing.T) {
	for _, nw := range networks() {
		t.Run(nw.name, func(t *testing.T) {
			endpoint := nw.open(t)
			a, b := endpoint("a"), endpoint("b")
			const before, after = 50, 50
			for i := range before {
				_ = a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: uint64(i)})
			}
			waitFor(t, "queued messages", func() bool { return len(b.Inbox()) == before })
			var rec recorder
			b.Handle(rec.handle)
			if got := rec.n.Load(); got != before {
				t.Fatalf("Handle returned after %d deliveries, want %d", got, before)
			}
			for i := before; i < before+after; i++ {
				_ = a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: uint64(i)})
			}
			waitFor(t, "all messages", func() bool { return rec.n.Load() == before+after })
			checkInOrder(t, a.Addr(), rec.seqs[a.Addr()], before+after)
		})
	}
}

// TestHandleSwitchKeepsSenderFIFO: several senders stream to one endpoint
// while it switches from its inbox to a handler; each sender's messages
// arrive complete and in order.
func TestHandleSwitchKeepsSenderFIFO(t *testing.T) {
	for _, nw := range networks() {
		t.Run(nw.name, func(t *testing.T) {
			const senders, per = 4, 1500
			endpoint := nw.open(t)
			b := endpoint("b")
			var wg sync.WaitGroup
			froms := make([]transport.Addr, senders)
			for s := range senders {
				a := endpoint(fmt.Sprintf("s%d", s))
				froms[s] = a.Addr()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range per {
						_ = a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: uint64(i)})
					}
				}()
			}
			waitFor(t, "a full inbox", func() bool { return len(b.Inbox()) == cap(b.Inbox()) })
			var rec recorder
			b.Handle(rec.handle)
			wg.Wait()
			waitFor(t, "all messages", func() bool { return rec.n.Load() == senders*per })
			for _, from := range froms {
				checkInOrder(t, from, rec.seqs[from], per)
			}
		})
	}
}

// TestNothingDeliveredAfterClose: once Close returns, no handler call is
// running or starts, though senders keep sending.
func TestNothingDeliveredAfterClose(t *testing.T) {
	for _, nw := range networks() {
		t.Run(nw.name, func(t *testing.T) {
			endpoint := nw.open(t)
			a, b := endpoint("a"), endpoint("b")
			var closed, late, got atomic.Int64
			b.Handle(func(transport.Envelope) {
				time.Sleep(10 * time.Microsecond)
				if closed.Load() != 0 {
					late.Add(1)
				}
				got.Add(1)
			})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_ = a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: i})
				}
			}()
			waitFor(t, "deliveries", func() bool { return got.Load() > 100 })
			_ = b.Close()
			closed.Store(1)
			time.Sleep(20 * time.Millisecond)
			close(stop)
			wg.Wait()
			if n := late.Load(); n != 0 {
				t.Fatalf("%d handler calls ended after Close returned", n)
			}
		})
	}
}
