package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/netsim"
	"mrp/internal/transport"
)

func TestRouterDispatchByRing(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(0))
	defer net.Close()
	a := net.Endpoint("a")
	b := net.Endpoint("b")

	r := transport.NewRouter(b)
	ring1 := make(chan transport.Envelope, 8)
	ring2 := make(chan transport.Envelope, 8)
	r.Ring(1, ring1)
	r.Ring(2, ring2)
	r.Start()
	defer r.Stop()

	_ = a.Send("b", &msg.TrimCmd{Ring: 2, UpTo: 5})
	_ = a.Send("b", &msg.TrimCmd{Ring: 1, UpTo: 9})

	select {
	case env := <-ring2:
		if env.Msg.(*msg.TrimCmd).UpTo != 5 {
			t.Fatal("wrong message on ring 2")
		}
	case <-time.After(time.Second):
		t.Fatal("ring 2 timeout")
	}
	select {
	case env := <-ring1:
		if env.Msg.(*msg.TrimCmd).UpTo != 9 {
			t.Fatal("wrong message on ring 1")
		}
	case <-time.After(time.Second):
		t.Fatal("ring 1 timeout")
	}
}

func TestRouterServiceHandler(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(0))
	defer net.Close()
	a := net.Endpoint("a")
	b := net.Endpoint("b")

	r := transport.NewRouter(b)
	got := make(chan transport.Envelope, 1)
	r.Service(func(env transport.Envelope) { got <- env })
	r.Start()
	defer r.Stop()

	// CkptQuery is not ring-scoped: goes to the service handler.
	_ = a.Send("b", &msg.CkptQuery{Seq: 7})
	select {
	case env := <-got:
		if env.Msg.(*msg.CkptQuery).Seq != 7 {
			t.Fatal("wrong service message")
		}
		if env.From != "a" {
			t.Fatalf("from = %q", env.From)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout")
	}
}

func TestRouterUnpacksBatch(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(0))
	defer net.Close()
	a := net.Endpoint("a")
	b := net.Endpoint("b")

	r := transport.NewRouter(b)
	ring1 := make(chan transport.Envelope, 8)
	svc := make(chan transport.Envelope, 8)
	r.Ring(1, ring1)
	r.Service(func(env transport.Envelope) { svc <- env })
	r.Start()
	defer r.Stop()

	_ = a.Send("b", &msg.Batch{Msgs: []msg.Message{
		&msg.TrimCmd{Ring: 1, UpTo: 1},
		&msg.CkptQuery{Seq: 2},
		&msg.TrimCmd{Ring: 1, UpTo: 3},
	}})
	deadline := time.After(time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-ring1:
		case <-deadline:
			t.Fatal("ring messages from batch missing")
		}
	}
	select {
	case <-svc:
	case <-deadline:
		t.Fatal("service message from batch missing")
	}
}

func TestRouterDropsUnregisteredRing(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(0))
	defer net.Close()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	r := transport.NewRouter(b)
	r.Start()
	defer r.Stop()
	// Must not panic or block.
	_ = a.Send("b", &msg.TrimCmd{Ring: 99, UpTo: 1})
	time.Sleep(20 * time.Millisecond)
}

func TestRouterStopsOnEndpointClose(t *testing.T) {
	net := netsim.New()
	defer net.Close()
	b := net.Endpoint("b")
	r := transport.NewRouter(b)
	r.Start()
	_ = b.Close()
	// The router holds no goroutine; Stop stays safe after Close.
	r.Stop()
}

// TestRouterDropsAfterStop: Stop releases a delivery blocked on a full
// ring channel, and every later message is dropped, ring-scoped or not.
func TestRouterDropsAfterStop(t *testing.T) {
	net := netsim.New(netsim.WithUniformLatency(0))
	defer net.Close()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	r := transport.NewRouter(b)
	ring1 := make(chan transport.Envelope, 1)
	r.Ring(1, ring1)
	var served atomic.Int32
	r.Service(func(transport.Envelope) { served.Add(1) })
	r.Start()
	// The first fills ring1 and the second blocks dispatch on it; the
	// query waits behind them on the same link.
	_ = a.Send("b", &msg.TrimCmd{Ring: 1, UpTo: 1})
	_ = a.Send("b", &msg.TrimCmd{Ring: 1, UpTo: 2})
	_ = a.Send("b", &msg.CkptQuery{Seq: 1})
	time.Sleep(20 * time.Millisecond)
	r.Stop()
	_ = a.Send("b", &msg.CkptQuery{Seq: 2})
	_ = a.Send("b", &msg.TrimCmd{Ring: 1, UpTo: 3})
	time.Sleep(20 * time.Millisecond)
	if n := served.Load(); n != 0 {
		t.Fatalf("service saw %d messages queued behind or sent after Stop", n)
	}
	if len(ring1) != 1 || (<-ring1).Msg.(*msg.TrimCmd).UpTo != 1 {
		t.Fatal("ring channel changed after Stop")
	}
}

func TestHandlerMux(t *testing.T) {
	var m transport.HandlerMux
	// Unset: drops silently.
	m.Handle(transport.Envelope{})
	var mu sync.Mutex
	count := 0
	m.Set(func(transport.Envelope) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				m.Handle(transport.Envelope{})
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if count != 400 {
		t.Fatalf("count = %d", count)
	}
}
