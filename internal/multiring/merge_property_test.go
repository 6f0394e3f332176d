package multiring

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mrp/internal/msg"
	"mrp/internal/ringpaxos"
)

// replaySource is a DecisionSource replaying a fixed decided stream
// through its channel, which the learner pumps once started.
type replaySource struct {
	ring msg.RingID
	ch   chan ringpaxos.Decided
}

func newReplaySource(ring msg.RingID, seq []ringpaxos.Decided) *replaySource {
	ch := make(chan ringpaxos.Decided, len(seq))
	for _, d := range seq {
		ch <- d
	}
	return &replaySource{ring: ring, ch: ch}
}

func (r *replaySource) Ring() msg.RingID                    { return r.ring }
func (r *replaySource) Decisions() <-chan ringpaxos.Decided { return r.ch }

// pushSource is a DecisionSource that pushes, like *ringpaxos.Process:
// the test calls push with the ring's decisions.
type pushSource struct {
	ring msg.RingID
	push func(ringpaxos.Decided)
}

func (p *pushSource) Ring() msg.RingID                    { return p.ring }
func (p *pushSource) Decisions() <-chan ringpaxos.Decided { return nil }
func (p *pushSource) SetSink(fn func(ringpaxos.Decided))  { p.push = fn }

// pushLearner builds a learner over one pushSource per ring whose
// deliveries are rendered into *out, in order.
func pushLearner(m int, out *[]string, rings ...msg.RingID) (*Learner, map[msg.RingID]*pushSource) {
	srcs := make(map[msg.RingID]*pushSource, len(rings))
	list := make([]DecisionSource, 0, len(rings))
	for _, r := range rings {
		srcs[r] = &pushSource{ring: r}
		list = append(list, srcs[r])
	}
	l := NewLearner(m, list...)
	l.SetDeliver(func(d Delivery) { *out = append(*out, render(d)) })
	return l, srcs
}

// render names one delivery, skips included.
func render(d Delivery) string {
	if d.Skip {
		return fmt.Sprintf("r%d:skip@%d-%d", d.Ring, d.Instance, d.SkipTo)
	}
	return fmt.Sprintf("r%d@%d:%s:%t", d.Ring, d.Instance, d.Entry.Data, d.EndOfInstance)
}

// TestMergeDeterminismProperty: two learners fed identical ring streams
// in different arrival orders — one ring after the other, or the rings
// interleaved — produce identical delivery sequences for any stream
// content and any M: the deterministic merge is a pure function of its
// inputs.
func TestMergeDeterminismProperty(t *testing.T) {
	f := func(seed1, seed2 []byte, mRaw uint8) bool {
		m := int(mRaw%3) + 1
		seq1, seq2 := decidedSeq(1, seed1), decidedSeq(2, seed2)
		var serial, interleaved []string
		_, a := pushLearner(m, &serial, 1, 2)
		for _, d := range seq1 {
			a[1].push(d)
		}
		for _, d := range seq2 {
			a[2].push(d)
		}
		_, b := pushLearner(m, &interleaved, 1, 2)
		for i := 0; i < len(seq1) || i < len(seq2); i++ {
			if i < len(seq2) {
				b[2].push(seq2[i])
			}
			if i < len(seq1) {
				b[1].push(seq1[i])
			}
		}
		return slices.Equal(serial, interleaved)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRoundRobinOrderExact pins the merge order for a known input:
// with M=1 the learner alternates ring 1, ring 2, consuming skip credit
// where a range covers multiple turns — even though ring 2's decisions
// arrive first.
func TestMergeRoundRobinOrderExact(t *testing.T) {
	seq1 := []ringpaxos.Decided{
		payload(1, 1, "a1"),
		payload(1, 2, "a2"),
		payload(1, 3, "a3"),
	}
	seq2 := []ringpaxos.Decided{
		{Ring: 2, Instance: 1, Value: msg.Value{Skip: true, SkipTo: 3}}, // covers 2 turns
		payload(2, 3, "b3"),
	}
	var got []string
	l, srcs := pushLearner(1, &got, 1, 2)
	defer l.Stop()
	for _, d := range seq2 {
		srcs[2].push(d)
	}
	for _, d := range seq1 {
		srcs[1].push(d)
	}
	want := []string{"r1@1:a1:true", "r2:skip@1-3", "r1@2:a2:true", "r1@3:a3:true", "r2@3:b3:true"}
	if !slices.Equal(got, want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
}

// TestPushMergeMatchesChannelReference: pushing the same per-ring decided
// streams from one goroutine per ring, with seeded jitter between pushes,
// delivers exactly the sequence a learner pumping the streams from
// channels delivers. Which goroutine completes the merge, and in which
// order the rings' decisions arrive, must not show in the output.
func TestPushMergeMatchesChannelReference(t *testing.T) {
	rings := []msg.RingID{1, 2, 3}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(3) + 1
		streams := make(map[msg.RingID][]ringpaxos.Decided, len(rings))
		for _, r := range rings {
			streams[r] = randomStream(rng, r, 40+rng.Intn(40))
		}

		ref := NewLearner(m, newReplaySource(1, streams[1]), newReplaySource(2, streams[2]), newReplaySource(3, streams[3]))
		ref.Start()
		var want []string
		for idle := false; !idle; {
			select {
			case d := <-ref.Deliveries():
				want = append(want, render(d))
			case <-time.After(100 * time.Millisecond):
				idle = true
			}
		}
		ref.Stop()

		var got []string
		l, srcs := pushLearner(m, &got, rings...)
		var wg sync.WaitGroup
		for _, r := range rings {
			wg.Add(1)
			go func(src *pushSource, seq []ringpaxos.Decided, jitter *rand.Rand) {
				defer wg.Done()
				for _, d := range seq {
					switch jitter.Intn(4) {
					case 0:
						runtime.Gosched()
					case 1:
						time.Sleep(time.Duration(jitter.Intn(50)) * time.Microsecond)
					}
					src.push(d)
				}
			}(srcs[r], streams[r], rand.New(rand.NewSource(seed*10+int64(r))))
		}
		wg.Wait()
		l.Stop()
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("seed %d, M=%d: pushed merge delivered %d entries, channel reference %d; first difference at %d",
				seed, m, len(got), len(want), firstDiff(got, want))
		}
	}
}

// randomStream is a gap-free decided stream of n instances for one ring:
// mostly one- to three-entry batches, some skip ranges and empty values.
func randomStream(rng *rand.Rand, ring msg.RingID, n int) []ringpaxos.Decided {
	out := make([]ringpaxos.Decided, 0, n)
	inst := msg.Instance(1)
	for len(out) < n {
		switch k := rng.Intn(10); {
		case k == 0:
			to := inst + msg.Instance(rng.Intn(5)+2)
			out = append(out, ringpaxos.Decided{Ring: ring, Instance: inst, Value: msg.Value{Skip: true, SkipTo: to}})
			inst = to
			continue
		case k == 1:
			out = append(out, ringpaxos.Decided{Ring: ring, Instance: inst})
		default:
			batch := make([]msg.Entry, rng.Intn(3)+1)
			for e := range batch {
				batch[e] = msg.Entry{Proposer: 1, Seq: uint64(inst), Data: []byte(fmt.Sprintf("%d.%d", inst, e))}
			}
			out = append(out, ringpaxos.Decided{Ring: ring, Instance: inst, Value: msg.Value{Batch: batch}})
		}
		inst++
	}
	return out
}

func firstDiff(a, b []string) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func payload(ring msg.RingID, inst msg.Instance, data string) ringpaxos.Decided {
	return ringpaxos.Decided{
		Ring: ring, Instance: inst,
		Value: msg.Value{Batch: []msg.Entry{{
			Proposer: msg.NodeID(ring), Seq: uint64(inst), Data: []byte(data),
		}}},
	}
}

// decidedSeq turns random bytes into a gap-free decided stream: each byte
// becomes either a payload instance or a short skip range.
func decidedSeq(ring msg.RingID, seed []byte) []ringpaxos.Decided {
	var out []ringpaxos.Decided
	inst := msg.Instance(1)
	for i, b := range seed {
		if i >= 12 {
			break
		}
		if b%4 == 0 {
			width := msg.Instance(b%7) + 2
			out = append(out, ringpaxos.Decided{
				Ring: ring, Instance: inst,
				Value: msg.Value{Skip: true, SkipTo: inst + width},
			})
			inst += width
			continue
		}
		out = append(out, payload(ring, inst, fmt.Sprintf("r%d-i%d-%d", ring, inst, b)))
		inst++
	}
	return out
}
