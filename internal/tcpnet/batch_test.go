package tcpnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/transport"
)

// TestConcurrentSendAndClose hammers Send from several goroutines while the
// endpoint closes underneath them: no "send on closed channel" panic, no
// deadlock — late sends either queue, drop, or return ErrClosed.
func TestConcurrentSendAndClose(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		a, _ := Listen("127.0.0.1:0")
		b, _ := Listen("127.0.0.1:0")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: uint64(i)}); err != nil {
						return
					}
				}
			}()
		}
		_ = a.Close()
		wg.Wait()
		_ = b.Close()
	}
}

// TestBatchCoalescesFrames queues a burst before the send loop can drain it
// and reads the raw TCP stream: the messages must arrive packed into fewer
// frames than messages, at least one of them a msg.Batch — the assertion
// the seed's one-frame-per-message sendLoop fails.
func TestBatchCoalescesFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const total = 100
	for i := uint64(0); i < total; i++ {
		if err := a.Send(transport.Addr(ln.Addr().String()), &msg.TrimQuery{Ring: 1, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))

	// First frame is the handshake.
	hello, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hello.(*msg.Proposal); !ok {
		t.Fatalf("handshake frame is %T", hello)
	}

	frames, received, batches := 0, 0, 0
	var next uint64
	for received < total {
		m, err := readFrame(conn)
		if err != nil {
			t.Fatalf("after %d/%d messages in %d frames: %v", received, total, frames, err)
		}
		frames++
		var subs []msg.Message
		if b, ok := m.(*msg.Batch); ok {
			batches++
			subs = b.Msgs
		} else {
			subs = []msg.Message{m}
		}
		for _, sub := range subs {
			q, ok := sub.(*msg.TrimQuery)
			if !ok {
				t.Fatalf("unexpected %T on the wire", sub)
			}
			if q.Seq != next {
				t.Fatalf("out of order: got %d want %d", q.Seq, next)
			}
			next++
			received++
		}
	}
	if frames >= total {
		t.Fatalf("no coalescing: %d messages used %d frames", total, frames)
	}
	if batches == 0 {
		t.Fatal("no msg.Batch frame on the wire")
	}
	t.Logf("%d messages in %d frames (%d batch frames)", total, frames, batches)
}

// TestBatchUnpackedBeforeInbox runs both sides over real endpoints: the
// receiver's inbox must carry individual messages in FIFO order even though
// the sender coalesces.
func TestBatchUnpackedBeforeInbox(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")
	defer b.Close()
	const total = 300
	for i := uint64(0); i < total; i++ {
		if err := a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < total; i++ {
		select {
		case env := <-b.Inbox():
			if _, ok := env.Msg.(*msg.Batch); ok {
				t.Fatal("batch leaked into the inbox")
			}
			if got := env.Msg.(*msg.TrimQuery).Seq; got != i {
				t.Fatalf("out of order: got %d want %d", got, i)
			}
			if env.From != a.Addr() {
				t.Fatalf("from = %q", env.From)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timeout at %d", i)
		}
	}
}

func TestCollectBatchBounds(t *testing.T) {
	mk := func(seq uint64) msg.Message { return &msg.TrimQuery{Ring: 1, Seq: seq} }
	one := mk(0)
	perMsg := 4 + one.Size()

	// Count bound.
	ch := make(chan msg.Message, 16)
	for i := uint64(1); i <= 10; i++ {
		ch <- mk(i)
	}
	batch, carry := collectBatch(ch, []msg.Message{one}, msg.BatchSize([]msg.Message{one}), 4, 1<<20)
	if len(batch) != 4 || carry != nil {
		t.Fatalf("count bound: len=%d carry=%v", len(batch), carry)
	}

	// Byte budget: room for exactly one more message; the second overflows
	// and is carried into the next batch.
	ch2 := make(chan msg.Message, 16)
	ch2 <- mk(1)
	ch2 <- mk(2)
	budget := msg.BatchSize([]msg.Message{one}) + perMsg
	batch, carry = collectBatch(ch2, []msg.Message{one}, msg.BatchSize([]msg.Message{one}), 128, budget)
	if len(batch) != 2 {
		t.Fatalf("byte budget: len=%d", len(batch))
	}
	if carry == nil || carry.(*msg.TrimQuery).Seq != 2 {
		t.Fatalf("carry = %v, want seq 2", carry)
	}

	// Empty queue stops immediately.
	batch, carry = collectBatch(make(chan msg.Message), []msg.Message{one}, 0, 128, 1<<20)
	if len(batch) != 1 || carry != nil {
		t.Fatal("empty queue should return the batch unchanged")
	}
}

func TestReadFrameRejectsBadFrames(t *testing.T) {
	frame := func(n uint32, body []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		return append(hdr[:], body...)
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"zero length", frame(0, nil)},
		{"oversized length", frame(maxFrame+1, nil)},
		{"truncated body", frame(100, []byte{1, 2, 3})},
		{"unknown type", frame(1, []byte{0xff})},
		{"corrupt body", frame(3, []byte{byte(msg.TTrimQuery), 0x01, 0x02})},
		{"trailing bytes", func() []byte {
			f := appendFrame(nil, &msg.TrimQuery{Ring: 1, Seq: 1})
			f = append(f, 0, 0) // two bytes beyond the message encoding
			binary.BigEndian.PutUint32(f, uint32(len(f)-4))
			return f
		}()},
	}
	for _, tc := range cases {
		if _, err := readFrame(bytes.NewReader(tc.in)); err == nil {
			t.Errorf("%s: readFrame accepted a bad frame", tc.name)
		}
	}
}

// TestReadFrameAtExactlyMaxFrame checks the inclusive frame bound: a body of
// exactly maxFrame decodes, one byte more is rejected before the body is
// read.
func TestReadFrameAtExactlyMaxFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 2x64MB")
	}
	p := &msg.Proposal{Ring: 1, Payload: make([]byte, maxFrame-19)}
	if p.Size() != maxFrame {
		t.Fatalf("proposal body = %d, want %d", p.Size(), maxFrame)
	}
	f := appendFrame(make([]byte, 0, 4+maxFrame), p)
	m, err := readFrame(bytes.NewReader(f))
	if err != nil {
		t.Fatalf("frame at exactly maxFrame rejected: %v", err)
	}
	if got := len(m.(*msg.Proposal).Payload); got != maxFrame-19 {
		t.Fatalf("payload = %d bytes", got)
	}
}

// TestSendRejectsOversizedMessage: a message that cannot fit one frame is
// refused synchronously, not silently dropped in the send loop.
func TestSendRejectsOversizedMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 64MB")
	}
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")
	defer b.Close()
	huge := &msg.Proposal{Ring: 1, Payload: make([]byte, maxFrame)}
	if err := a.Send(b.Addr(), huge); err != ErrMessageTooLarge {
		t.Fatalf("err = %v, want ErrMessageTooLarge", err)
	}
	// The endpoint still works for sendable messages.
	if err := a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-b.Inbox():
		if env.Msg.(*msg.TrimQuery).Seq != 1 {
			t.Fatal("wrong message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout after oversized rejection")
	}
}

// TestRedialAfterConnectionDrop crashes the receiver, restarts it on the
// same port, and checks that a later Send re-establishes the connection.
func TestRedialAfterConnectionDrop(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	if err := a.Send(addr, &msg.TrimQuery{Ring: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Inbox():
	case <-time.After(5 * time.Second):
		t.Fatal("first message not delivered")
	}
	_ = b.Close() // crash the receiver; a's connection breaks

	b2, err := Listen(string(addr)) // recover on the same port
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer b2.Close()

	// The broken connection is only noticed on a failed write; keep sending
	// until the redialed connection delivers.
	deadline := time.After(10 * time.Second)
	for i := uint64(2); ; i++ {
		if err := a.Send(addr, &msg.TrimQuery{Ring: 1, Seq: i}); err != nil {
			t.Fatal(err)
		}
		select {
		case env := <-b2.Inbox():
			if env.From != a.Addr() {
				t.Fatalf("from = %q", env.From)
			}
			return // redial succeeded
		case <-time.After(50 * time.Millisecond):
		}
		select {
		case <-deadline:
			t.Fatal("no delivery after receiver restart")
		default:
		}
	}
}

// TestCloseUnblocksReadLoop fills the receiver's inbox so its readLoop
// blocks on the inbox send, then closes the endpoint: the blocked readLoop
// (and, transitively, the peer's sendLoop) must exit instead of leaking.
func TestCloseUnblocksReadLoop(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")

	// 4096 buffered + one blocked in the readLoop + slack.
	const total = 4200
	for i := uint64(0); i < total; i++ {
		if err := a.Send(b.Addr(), &msg.TrimQuery{Ring: 1, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the inbox is full, i.e. the readLoop is blocked.
	deadline := time.Now().Add(10 * time.Second)
	inbox := b.Inbox()
	for len(inbox) < cap(inbox) {
		if time.Now().After(deadline) {
			t.Fatalf("inbox never filled: %d/%d", len(inbox), cap(inbox))
		}
		time.Sleep(time.Millisecond)
	}
	atClose := runtime.NumGoroutine()
	_ = b.Close()
	// b's readLoop and acceptLoop exit; closing the connection also makes
	// a's sendLoop fail its next write eventually.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= atClose-2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain after Close: %d at close, %d now",
		atClose, runtime.NumGoroutine())
}

// TestUnbatchedOptOut checks the opt-out knob: a policy with Disabled set
// sends one frame per message.
func TestUnbatchedOptOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := Listen("127.0.0.1:0", WithBatch(transport.BatchPolicy{Disabled: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const total = 50
	for i := uint64(0); i < total; i++ {
		if err := a.Send(transport.Addr(ln.Addr().String()), &msg.TrimQuery{Ring: 1, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := readFrame(conn); err != nil { // handshake
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		m, err := readFrame(conn)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if _, ok := m.(*msg.Batch); ok {
			t.Fatal("batch frame despite Disabled policy")
		}
	}
}
