package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"mrp/internal/ycsb"
)

// tiny returns the smallest useful options for a smoke test.
func tiny() Options {
	return Options{PointSeconds: 0.3, Scale: 0.05, Clients: 6, Records: 300}
}

func TestFig3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := tiny()
	row := fig3Point(opts, Fig3Modes[4], 512) // in-memory
	if row.ThroughputMbps <= 0 {
		t.Fatalf("no throughput: %+v", row)
	}
	if row.MeanLatency <= 0 {
		t.Fatal("no latency recorded")
	}
	var buf bytes.Buffer
	RenderFig3(&buf, []Fig3Row{row})
	if !strings.Contains(buf.String(), "In Memory") {
		t.Fatalf("render output:\n%s", buf.String())
	}
}

func TestFig3SyncSlowerThanMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := tiny()
	mem := fig3Point(opts, Fig3Modes[4], 2048)  // in-memory
	sync := fig3Point(opts, Fig3Modes[0], 2048) // sync HDD
	if sync.ThroughputMbps >= mem.ThroughputMbps {
		t.Fatalf("sync HDD (%.1f Mbps) should be slower than in-memory (%.1f Mbps)",
			sync.ThroughputMbps, mem.ThroughputMbps)
	}
	if sync.MeanLatency <= mem.MeanLatency {
		t.Fatalf("sync HDD latency (%v) should exceed in-memory (%v)",
			sync.MeanLatency, mem.MeanLatency)
	}
}

func TestFig4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := tiny()
	for _, sys := range Fig4Systems {
		row := fig4Point(opts, sys, 'A')
		if row.OpsPerSec <= 0 {
			t.Fatalf("%s: no throughput", sys)
		}
		if row.Errors > uint64(row.OpsPerSec*opts.PointSeconds/10) {
			t.Fatalf("%s: too many errors: %d", sys, row.Errors)
		}
	}
}

func TestFig5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := tiny()
	dl := fig5DLog(opts, 10)
	bk := fig5Bookkeeper(opts, 10)
	if dl.OpsPerSec <= 0 || bk.OpsPerSec <= 0 {
		t.Fatalf("throughput: dlog=%.0f bk=%.0f", dl.OpsPerSec, bk.OpsPerSec)
	}
	var buf bytes.Buffer
	RenderFig5(&buf, []Fig5Row{dl, bk})
	if !strings.Contains(buf.String(), "dLog") {
		t.Fatal("render")
	}
}

func TestFig6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("vertical-scaling ratio is timing-sensitive under the race detector")
	}
	opts := tiny()
	r1 := fig6Point(opts, 1)
	r2 := fig6Point(opts, 2)
	if r1.AggOpsPerSec <= 0 || r2.AggOpsPerSec <= 0 {
		t.Fatalf("throughput: %v %v", r1.AggOpsPerSec, r2.AggOpsPerSec)
	}
	// Two rings (two disks) must beat one ring meaningfully.
	if r2.AggOpsPerSec < r1.AggOpsPerSec*1.2 {
		t.Fatalf("no vertical scaling: 1 ring=%.0f, 2 rings=%.0f", r1.AggOpsPerSec, r2.AggOpsPerSec)
	}
}

func TestFig7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("WAN scaling threshold is timing-sensitive under the race detector")
	}
	opts := tiny()
	opts.PointSeconds = 0.8 // WAN batches need a few round trips
	r1 := fig7Point(opts, 1)
	r2 := fig7Point(opts, 2)
	if r1.AggOpsPerSec <= 0 || r2.AggOpsPerSec <= 0 {
		t.Fatalf("throughput: %v %v", r1.AggOpsPerSec, r2.AggOpsPerSec)
	}
	if r2.AggOpsPerSec < r1.AggOpsPerSec*1.2 {
		t.Fatalf("no horizontal scaling: 1 region=%.0f, 2 regions=%.0f",
			r1.AggOpsPerSec, r2.AggOpsPerSec)
	}
}

func TestFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("compressed recovery timeline is timing-sensitive under the race detector")
	}
	opts := tiny()
	opts.PointSeconds = 0.6 // total timeline = 6s
	res := Fig8(opts)
	if res.SteadyOps <= 0 {
		t.Fatal("no steady-state throughput")
	}
	// With ring leases on, every reply comes from the partition's holder, so
	// the post-recovery windows ride one replica's latency instead of the
	// min over three — under a loaded machine the compressed timeline can
	// end before that settles. Remeasure a failing run: fail only if the
	// recovered state is missing three runs in a row.
	for attempt := 1; res.RecoveredOps <= res.SteadyOps/4; attempt++ {
		if attempt == 3 {
			t.Fatalf("no recovery: steady=%.0f recovered=%.0f", res.SteadyOps, res.RecoveredOps)
		}
		t.Logf("attempt %d: steady=%.0f recovered=%.0f; remeasuring", attempt, res.SteadyOps, res.RecoveredOps)
		res = Fig8(opts)
	}
	// All five paper events must be present, plus the live split that
	// makes the crashed replica a split-partition one. "5:" only appears
	// when RecoverReplica succeeded — split-partition recovery is expected
	// to work, not to error.
	want := []string{"0:", "1:", "2:", "3:", "4:", "5:"}
	for _, prefix := range want {
		found := false
		for _, e := range res.Events {
			if strings.HasPrefix(e.Label, prefix) {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing event %q in %v", prefix, res.Events)
		}
	}
}

func TestRebalanceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("compressed split timeline is timing-sensitive under the race detector")
	}
	opts := tiny()
	opts.PointSeconds = 0.5 // total timeline = 3s
	res := Rebalance(opts)
	if res.SteadyOps <= 0 {
		t.Fatal("no steady-state throughput")
	}
	if res.RecoveredOps <= res.SteadyOps/4 {
		t.Fatalf("throughput did not recover after the split: steady=%.0f recovered=%.0f",
			res.SteadyOps, res.RecoveredOps)
	}
	if res.SplitDuration <= 0 || res.MovedKeys <= 0 {
		t.Fatalf("split did not run: %+v", res)
	}
	// All protocol steps must be marked on the timeline.
	for _, step := range []string{"provision", "prepare", "copy", "activate", "publish", "commit"} {
		found := false
		for _, e := range res.Events {
			if e.Label == step {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing step %q in %v", step, res.Events)
		}
	}
	var buf bytes.Buffer
	RenderRebalance(&buf, res)
	if !strings.Contains(buf.String(), "live partition split") {
		t.Fatalf("render output:\n%s", buf.String())
	}
}

func TestAutoshardSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("compressed controller timeline is timing-sensitive under the race detector (the autoshard acceptance test covers -race)")
	}
	opts := tiny()
	opts.PointSeconds = 0.6 // total timeline = 6s
	res := Autoshard(opts)
	if res.HotRate <= 0 || res.SteadyOps <= 0 {
		t.Fatalf("no load measured: %+v", res)
	}
	// The controller must split under the skew and merge after the shift —
	// exactly once each (no flapping).
	if res.Splits != 1 || res.Merges != 1 {
		t.Fatalf("controller splits=%d merges=%d, want 1 and 1\nevents: %v",
			res.Splits, res.Merges, res.Events)
	}
	// Client throughput never collapses to zero for a full window: the
	// controller's migrations freeze only the moving range.
	for i, s := range res.Samples {
		if i == 0 || !s.Complete {
			continue
		}
		if s.Throughput == 0 {
			t.Fatalf("window %d (%v): throughput hit zero\nevents: %v", i, s.At, res.Events)
		}
	}
	var buf bytes.Buffer
	RenderAutoshard(&buf, res)
	if !strings.Contains(buf.String(), "load-driven split") {
		t.Fatalf("render output:\n%s", buf.String())
	}
}

func TestAblationSkipSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := tiny()
	rows := AblationSkip(opts)
	on, off := rows[0].OpsPerSec, rows[1].OpsPerSec
	if off*5 > on {
		t.Fatalf("merge without skips should collapse: on=%.0f off=%.0f", on, off)
	}
}

func TestOptionsFromEnv(t *testing.T) {
	t.Setenv("MRP_BENCH_SECONDS", "2.5")
	t.Setenv("MRP_BENCH_SCALE", "0.5")
	o := FromEnv()
	if o.PointSeconds != 2.5 || o.Scale != 0.5 {
		t.Fatalf("opts = %+v", o)
	}
	t.Setenv("MRP_BENCH_SECONDS", "garbage")
	o = FromEnv()
	if o.PointSeconds != 1.5 {
		t.Fatalf("default not applied: %+v", o)
	}
}

func TestTxnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := tiny()
	multi := txnPoint(opts, TxnMulticast, 2, 16)
	global := txnPoint(opts, TxnGlobalAll, 2, 16)
	for _, r := range []TxnRow{multi, global} {
		if r.OpsPerSec <= 0 {
			t.Fatalf("%s: no throughput", r.Mode)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Fatalf("%s: implausible quantiles p50=%v p99=%v", r.Mode, r.P50, r.P99)
		}
		if r.Errors > uint64(r.OpsPerSec*opts.PointSeconds/10) {
			t.Fatalf("%s: too many errors: %d", r.Mode, r.Errors)
		}
	}
	var buf bytes.Buffer
	RenderTxn(&buf, []TxnRow{multi, global})
	if !strings.Contains(buf.String(), "multicast") {
		t.Fatalf("render output:\n%s", buf.String())
	}
	path := t.TempDir() + "/BENCH_txn.json"
	if err := WriteTxnJSON(path, []TxnRow{multi, global}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), "\"ops_per_sec\"") {
		t.Fatalf("json artifact: %v\n%s", err, b)
	}
	if raceEnabled {
		t.Log("race detector enabled; skipping throughput comparison")
		return
	}
	// The whole point of the minimal ring set: with >=2 partitions the
	// single-partition majority of the workload orders on independent
	// rings, so multicast routing must out-run the order-everything-
	// globally baseline. A sub-second point is at the mercy of whatever
	// the rest of the suite is doing to the machine, so remeasure a
	// losing pair: fail only if the baseline wins three pairs in a row.
	for attempt := 1; multi.OpsPerSec <= global.OpsPerSec; attempt++ {
		if attempt == 3 {
			t.Fatalf("multicast (%.0f txn/s) should beat the global-ring baseline (%.0f txn/s)",
				multi.OpsPerSec, global.OpsPerSec)
		}
		t.Logf("attempt %d: multicast %.0f <= global %.0f txn/s; remeasuring",
			attempt, multi.OpsPerSec, global.OpsPerSec)
		multi = txnPoint(opts, TxnMulticast, 2, 16)
		global = txnPoint(opts, TxnGlobalAll, 2, 16)
	}
}

func TestReadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := tiny()
	local := readsPoint(opts, ReadsLocal, ycsb.WorkloadC)
	ordered := readsPoint(opts, ReadsOrdered, ycsb.WorkloadC)
	for _, r := range []ReadsRow{local, ordered} {
		if r.OpsPerSec <= 0 {
			t.Fatalf("%s: no throughput", r.Mode)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Fatalf("%s: implausible quantiles p50=%v p99=%v", r.Mode, r.P50, r.P99)
		}
		if r.Errors > uint64(r.OpsPerSec*opts.PointSeconds/10) {
			t.Fatalf("%s: too many errors: %d", r.Mode, r.Errors)
		}
	}
	// The fast path must actually be exercised — and only where leases are
	// on. A local point with zero lease reads means every read silently
	// fell back to ordering, which is exactly the regression this test is
	// here to catch.
	if local.LeaseReads == 0 {
		t.Fatalf("local mode served no lease reads: %+v", local)
	}
	if ordered.LeaseReads != 0 {
		t.Fatalf("ordered mode served lease reads: %+v", ordered)
	}
	var buf bytes.Buffer
	RenderReads(&buf, []ReadsRow{local, ordered})
	if !strings.Contains(buf.String(), "ring leases") {
		t.Fatalf("render output:\n%s", buf.String())
	}
	path := t.TempDir() + "/BENCH_reads.json"
	if err := WriteReadsJSON(path, []ReadsRow{local, ordered}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), "\"lease_reads\"") {
		t.Fatalf("json artifact: %v\n%s", err, b)
	}
	if raceEnabled {
		t.Log("race detector enabled; skipping throughput comparison")
		return
	}
	// The acceptance claim: a lease read is one request/response against
	// the holder, an ordered read is a consensus instance plus the merge —
	// local must run at least 5x the ordered throughput with a lower p50.
	// Sub-second points are noisy under a loaded machine, so remeasure a
	// losing pair: fail only if the lease path loses three pairs in a row.
	for attempt := 1; local.OpsPerSec < 5*ordered.OpsPerSec || local.P50 >= ordered.P50; attempt++ {
		if attempt == 3 {
			t.Fatalf("local reads (%.0f op/s, p50=%v) should be >= 5x ordered (%.0f op/s, p50=%v) with lower p50",
				local.OpsPerSec, local.P50, ordered.OpsPerSec, ordered.P50)
		}
		t.Logf("attempt %d: local %.0f op/s p50=%v vs ordered %.0f op/s p50=%v; remeasuring",
			attempt, local.OpsPerSec, local.P50, ordered.OpsPerSec, ordered.P50)
		local = readsPoint(opts, ReadsLocal, ycsb.WorkloadC)
		ordered = readsPoint(opts, ReadsOrdered, ycsb.WorkloadC)
	}
}

func TestLatencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Saturation with enough concurrent workers that the coordinator's
	// batches really fill, and enough disk cost per instance (sync SSD at quarter scale)
	// that amortizing it is measurable.
	opts := Options{PointSeconds: 0.3, Scale: 0.25, Clients: 64}
	batched := latencyPoint(opts, LatencyBatched, 16, 0)
	unbatched := latencyPoint(opts, LatencyUnbatched, 16, 0)
	paced := latencyPoint(opts, LatencyBatched, 16, 1000)
	for _, r := range []LatencyRow{batched, unbatched, paced} {
		if r.OpsPerSec <= 0 {
			t.Fatalf("%s: no throughput", r.Mode)
		}
		if r.P50 <= 0 || r.P99 < r.P50 || r.P999 < r.P99 {
			t.Fatalf("%s: implausible quantiles p50=%v p99=%v p999=%v", r.Mode, r.P50, r.P99, r.P999)
		}
		if r.Errors > uint64(r.OpsPerSec*opts.PointSeconds/10) {
			t.Fatalf("%s: too many errors: %d", r.Mode, r.Errors)
		}
	}
	var buf bytes.Buffer
	RenderLatency(&buf, []LatencyRow{batched, unbatched, paced})
	for _, want := range []string{"batched", "unbatched", "sat", "1000"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render output missing %q:\n%s", want, buf.String())
		}
	}
	path := t.TempDir() + "/BENCH_latency.json"
	if err := WriteLatencyJSON(path, []LatencyRow{batched, unbatched, paced}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), "\"p999_us\"") {
		t.Fatalf("json artifact: %v\n%s", err, b)
	}
	if raceEnabled {
		t.Log("race detector enabled; skipping throughput comparison")
		return
	}
	// The acceptance claim: at saturation, ring-level batching amortizes one
	// consensus instance (and its synchronous log write) over many
	// commands, so batched throughput must be at least twice unbatched.
	// Sub-second points are noisy under a loaded machine, so remeasure a
	// losing pair: fail only if batching loses three pairs in a row.
	for attempt := 1; batched.OpsPerSec < 2*unbatched.OpsPerSec; attempt++ {
		if attempt == 3 {
			t.Fatalf("batched (%.0f op/s) should be >= 2x unbatched (%.0f op/s) at saturation",
				batched.OpsPerSec, unbatched.OpsPerSec)
		}
		t.Logf("attempt %d: batched %.0f < 2x unbatched %.0f op/s; remeasuring",
			attempt, batched.OpsPerSec, unbatched.OpsPerSec)
		batched = latencyPoint(opts, LatencyBatched, 16, 0)
		unbatched = latencyPoint(opts, LatencyUnbatched, 16, 0)
	}
}
