package main

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mrp/internal/msg"
	"mrp/internal/smr"
)

// sampledSeq returns the first sequence number at or after from that the tap
// follows for the proposer.
func sampledSeq(proposer msg.NodeID, from uint64) uint64 {
	for seq := from; ; seq++ {
		if sampled(proposer, seq) {
			return seq
		}
	}
}

func command(client, seq uint64) []byte {
	return smr.Command{ClientID: client, Seq: seq, ReplyTo: "client", Op: []byte("op")}.Encode()
}

// TestStageJoin feeds the tap a Proposal -> Phase2 -> Decision -> Response
// sequence by hand: a plain proposal, a batched one whose commands are
// answered under their own identities, and one the client had to re-send.
func TestStageJoin(t *testing.T) {
	const client = 900
	tp := newTap()
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }

	// A plain proposal: the proposal and its command share an identity.
	plain := sampledSeq(client, 1)
	tp.observe(at(0), "client", true, &msg.Proposal{Ring: 1, ProposerID: client, Seq: plain, Payload: command(client, plain)})
	// A ring member forwarding the same proposal starts no second span.
	tp.observe(at(1), "r1", false, &msg.Proposal{Ring: 1, ProposerID: client, Seq: plain, Payload: command(client, plain)})

	// A batch of three commands under the client's batch identity.
	batch := sampledSeq(client, 1<<63|1)
	inner := []uint64{5001, 5002, 5003}
	var payloads [][]byte
	for _, seq := range inner {
		payloads = append(payloads, command(client, seq))
	}
	tp.observe(at(10), "client", true, &msg.Proposal{Ring: 1, ProposerID: client, Seq: batch, Payload: smr.EncodeBatch(payloads)})

	// A proposal the client sends twice (its retry timer fired).
	resent := sampledSeq(client, plain+1)
	for _, us := range []int{20, 120} {
		tp.observe(at(us), "client", true, &msg.Proposal{Ring: 1, ProposerID: client, Seq: resent, Payload: command(client, resent)})
	}

	// The coordinator decides the plain proposal and the batch in one
	// instance, the re-sent one in the next. Acceptors forward the Phase2;
	// only the first Send of each counts.
	entries := func(seqs ...uint64) msg.Value {
		var v msg.Value
		for _, seq := range seqs {
			v.Batch = append(v.Batch, msg.Entry{Proposer: client, Seq: seq})
		}
		return v
	}
	tp.observe(at(30), "r0", false, &msg.Phase2{Ring: 1, Instance: 7, Value: entries(plain, batch)})
	tp.observe(at(35), "r1", false, &msg.Phase2{Ring: 1, Instance: 7, Value: entries(plain, batch)})
	tp.observe(at(130), "r0", false, &msg.Phase2{Ring: 1, Instance: 8, Value: entries(resent)})
	tp.observe(at(50), "r2", false, &msg.Decision{Ring: 1, Instance: 7})
	tp.observe(at(55), "r0", false, &msg.Decision{Ring: 1, Instance: 7})
	tp.observe(at(140), "r2", false, &msg.Decision{Ring: 1, Instance: 8})
	// A decision of an instance nobody follows is only counted.
	tp.observe(at(141), "r2", false, &msg.Decision{Ring: 1, Instance: 99})

	tp.observe(at(80), "r1", false, &msg.Response{ClientID: client, Seq: plain})
	tp.observe(at(85), "r2", false, &msg.Response{ClientID: client, Seq: plain}) // a second replica's reply
	tp.observe(at(90), "r1", false, &msg.Response{ClientID: client, Seq: inner[1]})
	tp.observe(at(95), "r1", false, &msg.Response{ClientID: client, Seq: inner[0]})
	tp.observe(at(150), "r1", false, &msg.Response{ClientID: client, Seq: resent})

	st := tp.join(func(msg.RingID) bool { return true })
	// Two spans are complete and not re-sent: plain (0/30/50/80) and the
	// batch (10/30/50/90). Nearest-rank medians of two take the lower.
	want := stages{spans: 2, intake: 20 * time.Microsecond, round: 20 * time.Microsecond,
		deliverExec: 30 * time.Microsecond, inSystem: 80 * time.Microsecond}
	if st != want {
		t.Fatalf("join = %+v, want %+v", st, want)
	}
	if got := tp.join(func(r msg.RingID) bool { return r != 1 }).spans; got != 0 {
		t.Fatalf("join over other rings saw %d spans", got)
	}
	if got, want := tp.msgs.Load(), uint64(17); got != want {
		t.Fatalf("counted %d messages, want %d", got, want)
	}
	if got := tp.byType[msg.TDecision].Load(); got != 4 {
		t.Fatalf("counted %d decisions, want 4", got)
	}
	if got := len(tp.capturedOps(1)); got != 5 {
		t.Fatalf("captured %d operations, want 5 (1 + 3 + 1)", got)
	}

	// Written out, each span is a chain of three stages sharing one id.
	recs := tp.records(t0)
	if len(recs) != 9 {
		t.Fatalf("%d span records, want 9", len(recs))
	}
	if recs[0].Name != "ringpaxos.intake" || recs[0].Parent != "" || recs[1].Parent != "ringpaxos.intake" ||
		recs[2].Parent != "ringpaxos.round" || recs[0].ID != recs[2].ID || recs[1].StartNs != recs[0].EndNs {
		t.Fatalf("span chain malformed: %+v", recs[:3])
	}
}

func TestPercentiles(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 1000; i++ {
		d = append(d, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{0: 1, 0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := percentile(d, p); got != want {
			t.Errorf("percentile(%g) = %d, want %d", p, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{99, 0, false}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {10000, 0.999, true}, {1 << 20, 0.9999, true}} {
		if got, ok := highestPercentile(c.n); got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles = %g %g %g", q1, med, q3)
	}
}

func summaryOf(values ...float64) *metricSummary {
	ms := &metricSummary{Values: values}
	ms.Q1, ms.Median, ms.Q3 = quartiles(values)
	return ms
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "write_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_s", Better: "higher", Bound: 0.10}
	steady := summaryOf(100, 101, 99, 100, 102)
	for _, c := range []struct {
		name string
		spec metricSpec
		b    *metricSummary
		want string
	}{
		{"same", lower, summaryOf(101, 100, 102, 99, 100), verdictOK},
		{"slower", lower, summaryOf(120, 121, 119, 120, 122), verdictRegressed},
		{"faster", lower, summaryOf(80, 81, 79, 80, 82), verdictOK},
		{"less throughput", higher, summaryOf(80, 81, 79, 80, 82), verdictRegressed},
		{"more throughput", higher, summaryOf(120, 121, 119, 120, 122), verdictOK},
		{"too noisy to tell", lower, summaryOf(60, 140, 100, 75, 125), verdictUnresolved},
	} {
		if got, _, _ := judge(c.spec, steady, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles runs -compare over two written summaries.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops, failRatio float64) string {
		s := newSummary(thisMachine(), 1, 5, 1)
		ws := &workloadSummary{FailRatio: failRatio, Metrics: map[string]*metricSummary{}}
		var spec benchmarkSpec
		if err := readJSON("../BENCHMARK.json", &spec); err != nil {
			t.Fatal(err)
		}
		for _, m := range spec.EndToEnd {
			ws.Metrics[m.Name] = summaryOf(100, 101, 99, 100, 102)
		}
		ws.Metrics["ops_s"] = summaryOf(ops, ops+1, ops-1, ops, ops+2)
		s.Workloads["kv-sim"] = ws
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100, 0)
	for _, c := range []struct {
		name string
		path string
		code int
		want string
	}{
		{"same", write("same.json", 100, 0), 0, verdictOK},
		{"slower", write("slower.json", 70, 0), 1, "ops_s regressed"},
		{"failing", write("failing.json", 100, 0.01), 1, "fail_ratio rose"},
	} {
		var out bytes.Buffer
		if code := compareFiles(&out, "../BENCHMARK.json", base, c.path); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
}

// TestSmoke runs every workload for a fraction of a second in both modes and
// checks that verification passes and that the metrics emitted are exactly
// the ones BENCHMARK.json lists. It asserts nothing about any value.
func TestSmoke(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames()) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", listed, workloadNames())
	}
	o := options{
		window:      300 * time.Millisecond,
		warmup:      100 * time.Millisecond,
		episodes:    2,
		microBudget: 2 * time.Millisecond,
		scratch:     t.TempDir(),
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			name string
			run  func(workload, int64, options) (result, error)
			want []string
		}{
			{"end-to-end", runEndToEnd, names(spec.EndToEnd)},
			{"per-layer", runTraced, names(spec.PerLayer)},
		} {
			res, err := mode.run(w, 7, o)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d: %v",
					w.name, mode.name, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if got := metricNames(res.Metrics); !reflect.DeepEqual(got, mode.want) {
				t.Errorf("%s %s: metrics\n got %v\nwant %v", w.name, mode.name, got, mode.want)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s: %s = %v", w.name, mode.name, name, m.Value)
				}
			}
		}
	}
}
