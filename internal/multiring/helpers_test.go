package multiring

import (
	"fmt"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/ringpaxos"
)

// fakeSource is a replayed decision stream for one ring.
type fakeSource struct {
	ring msg.RingID
	ch   chan ringpaxos.Decided
}

func newFakeSource(ring msg.RingID, cap int) *fakeSource {
	return &fakeSource{ring: ring, ch: make(chan ringpaxos.Decided, cap)}
}

func (f *fakeSource) Ring() msg.RingID                    { return f.ring }
func (f *fakeSource) Decisions() <-chan ringpaxos.Decided { return f.ch }

func (f *fakeSource) decide(inst msg.Instance, payload string) {
	f.ch <- ringpaxos.Decided{Ring: f.ring, Instance: inst, Value: msg.Value{
		Batch: []msg.Entry{{Proposer: 1, Seq: uint64(inst), Data: []byte(payload)}},
	}}
}

func (f *fakeSource) skip(inst, to msg.Instance) {
	f.ch <- ringpaxos.Decided{Ring: f.ring, Instance: inst, Value: msg.Value{Skip: true, SkipTo: to}}
}

// feed describes one scripted decision, replayable into several sources.
type feed struct {
	ring    msg.RingID
	inst    msg.Instance
	payload string
	skipTo  msg.Instance // > 0 for a skip decision
}

func replay(t *testing.T, script []feed, rings ...msg.RingID) map[msg.RingID]*fakeSource {
	t.Helper()
	srcs := make(map[msg.RingID]*fakeSource, len(rings))
	for _, r := range rings {
		srcs[r] = newFakeSource(r, len(script)+1)
	}
	for _, f := range script {
		if f.skipTo > 0 {
			srcs[f.ring].skip(f.inst, f.skipTo)
		} else {
			srcs[f.ring].decide(f.inst, f.payload)
		}
	}
	return srcs
}

func collect(t *testing.T, l *Learner, n int) []string {
	t.Helper()
	var out []string
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case d := <-l.Deliveries():
			if d.Skip {
				out = append(out, fmt.Sprintf("r%d:skip@%d-%d", d.Ring, d.Instance, d.SkipTo))
			} else {
				out = append(out, fmt.Sprintf("r%d:%s", d.Ring, d.Entry.Data))
			}
		case <-deadline:
			t.Fatalf("timed out after %d deliveries: %v", len(out), out)
		}
	}
	return out
}

// collectData gathers n non-skip deliveries (rate-leveling skips filtered).
func collectData(t *testing.T, l *Learner, n int) []string {
	t.Helper()
	var out []string
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case d := <-l.Deliveries():
			if d.Skip {
				continue
			}
			out = append(out, fmt.Sprintf("r%d:%s", d.Ring, d.Entry.Data))
		case <-deadline:
			t.Fatalf("timed out after %d data deliveries: %v", len(out), out)
		}
	}
	return out
}
