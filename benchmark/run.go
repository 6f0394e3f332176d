package main

import (
	"fmt"
	"sort"
	"time"

	"mrp/internal/msg"
)

// workload is one named configuration of the system under a fixed load
// shape. Every workload is a closed loop: sessions are client objects with
// their own endpoint (never more than the machine has processors), and the
// callers sharing a session each wait for a reply before sending again.
type workload struct {
	name string
	// prepare generates the inputs from the seed and returns the function
	// that deploys the system on them. Deploying is what setup_s times;
	// generating is the benchmark's own work and is not.
	prepare func(seed int64) func(t *tap) (env, error)
	// fault adds the crash-and-recover phase to the traced run.
	fault bool
}

var workloads = []workload{
	{
		name: "kv-sim",
		prepare: func(seed int64) func(*tap) (env, error) {
			return generateKV(kvSpec{transport: "sim", sessions: 2, inflight: 1, records: 20000,
				multiShare: 0.02, measuredSession: -1}, seed).deploy
		},
		fault: true,
	},
	{
		name: "kv-tcp",
		prepare: func(seed int64) func(*tap) (env, error) {
			return generateKV(kvSpec{transport: "tcp", sessions: 2, inflight: 8, records: 20000,
				multiShare: 0.02, measuredSession: -1}, seed).deploy
		},
	},
	{
		name:    "dlog-sync",
		prepare: func(seed int64) func(*tap) (env, error) { return generateDlog(seed).deploy },
	},
	{
		name: "kv-wan",
		prepare: func(seed int64) func(*tap) (env, error) {
			return generateKV(kvSpec{transport: "wan", sessions: 2, inflight: 8, records: 10000,
				multiShare: 0.30, readShare: 0.30, measuredSession: 1}, seed).deploy
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the run lengths; tests shorten them.
type options struct {
	window time.Duration // what is measured in all, split evenly over the episodes
	// episodes is how many times an end-to-end run deploys afresh, warms up
	// and measures. See runEndToEnd for why it is not once.
	episodes    int
	warmup      time.Duration // untimed, per deployment: leases granted, TCP connected
	microBudget time.Duration // per layer microbenchmark
	scratch     string        // directory for the write-ahead-log microbenchmarks
}

func defaultOptions(seconds float64) options {
	return options{
		window:      time.Duration(seconds * float64(time.Second)),
		episodes:    5,
		warmup:      500 * time.Millisecond,
		microBudget: 200 * time.Millisecond,
		scratch:     ".bench_build/tmp",
	}
}

// result is one run of one workload.
type result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]Metric
	Problems  []string // failed checks, and notes such as a substituted percentile
	spans     []spanRecord
}

// tailMetric reports a class's 99th percentile. It is reported only when at
// least ten samples lie beyond it; with fewer the highest percentile that has
// ten is reported in its place and named in a problem line, so a short run
// cannot pass off one slow sample as a tail.
func tailMetric(res *result, prefix string, lat []time.Duration) {
	p, ok := highestPercentile(len(lat))
	if !ok {
		p = 0.9
	}
	if p > 0.99 {
		p = 0.99
	} else if p < 0.99 {
		res.Problems = append(res.Problems,
			fmt.Sprintf("%s: %d samples support only p%g; %s_p99_us holds that percentile", prefix, len(lat), p*100, prefix))
	}
	res.Metrics[prefix+"_p99_us"] = Metric{Value: micros(percentile(lat, p)), Unit: "us", N: len(lat)}
}

var kindPrefix = [numKinds]string{kindRead: "read", kindWrite: "write", kindMulti: "multi"}

// conclude stops the load, verifies, adds what the phases attempted and what
// failed to the verdict, and returns the tally of each phase.
func conclude(res *result, r *runner, e env, phases ...int) []tally {
	r.stopLoad()
	var tallies []tally
	for _, ph := range phases {
		t := r.tally(ph)
		res.Attempted += t.completed() + t.failed
		res.Failed += t.failed
		tallies = append(tallies, t)
	}
	if res.Failed > 0 {
		res.Problems = append(res.Problems, r.errors()...)
	}
	checks, bad := e.verify()
	res.Attempted += checks
	res.Failed += len(bad)
	res.Problems = append(res.Problems, bad...)
	res.Correct = res.Failed == 0
	return tallies
}

// runEndToEnd is the untraced run, with no wrapper around any endpoint. It
// is made of several episodes, each a fresh deployment that is timed (the
// median is setup_s), warmed up, measured for its share of the window and
// verified; latencies are pooled and rates taken over the episodes together.
//
// One long window on one deployment is not steady on the rate-leveled
// workloads. How far one ring's instance counter lags another's is fixed
// when the rings start and shifts by a whole skip interval whenever a
// coordinator's skip timer drops a tick; nothing ever corrects it, and a
// command waits in the merge for the lagging ring. Identical 20 s runs of
// dlog-sync completed between 1770 and 3412 operations a second, 4 s runs
// between 3120 and 3474. Short episodes bound the drift and pooling five of
// them averages over the start-up offsets.
func runEndToEnd(w workload, seed int64, o options) (result, error) {
	res := result{Workload: w.name, Seed: seed, Metrics: map[string]Metric{}}
	deploy := w.prepare(seed)
	var setups []float64
	var t tally
	var elapsed time.Duration
	for i := 0; i < o.episodes; i++ {
		start := time.Now()
		e, err := deploy(nil)
		if err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		r := startLoad(e)
		time.Sleep(o.warmup)
		elapsed += r.measure(phaseMain, o.window/time.Duration(o.episodes)).elapsed
		t.add(conclude(&res, r, e, phaseMain)[0])
		e.stop()
	}
	t.sort()
	_, med, _ := quartiles(setups)
	res.Metrics["setup_s"] = Metric{Value: med, Unit: "s", N: len(setups)}

	// The rate counts what the measured sessions completed.
	res.Metrics["ops_s"] = Metric{Value: float64(t.measuredDone) / elapsed.Seconds(), Unit: "1/s", N: t.measuredDone}
	for k, prefix := range kindPrefix {
		res.Metrics[prefix+"_p50_us"] = Metric{Value: micros(percentile(t.latency[k], 0.5)), Unit: "us", N: len(t.latency[k])}
	}
	return res, nil
}

// runTraced is the per-layer run, on one deployment. Every endpoint carries
// the tap's wrapper from the start; half the window runs with the tap off
// and gives the counter deltas and the untraced rate, half with it on.
func runTraced(w workload, seed int64, o options) (result, error) {
	res := result{Workload: w.name, Seed: seed, Trace: true, Metrics: map[string]Metric{}}
	tp := newTap()
	e, err := w.prepare(seed)(tp)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer e.stop()

	r := startLoad(e)
	time.Sleep(o.warmup)
	origin := time.Now()
	// Untraced and traced quarters alternate, so that a rate that drifts
	// over the run does not pass for tracing overhead.
	var plain, traced window
	for i := 0; i < 2; i++ {
		plain.add(r.measure(phaseMain, o.window/4))
		tp.on.Store(true)
		traced.add(r.measure(phaseTraced, o.window/4))
		tp.on.Store(false)
	}

	m := res.Metrics
	phases := []int{phaseMain, phaseTraced}
	var recoverTime, catchup time.Duration
	f, canFault := e.(interface {
		faultPhase() (recoverTime, catchup time.Duration, err error)
	})
	if w.fault && canFault {
		phases = append(phases, phaseFault)
		r.phase.Store(phaseFault)
		recoverTime, catchup, err = f.faultPhase()
		r.phase.Store(phaseIdle)
		if err != nil {
			res.Failed++
			res.Problems = append(res.Problems, "fault phase: "+err.Error())
		}
	}
	tallies := conclude(&res, r, e, phases...)
	// All three are 0 on a workload without a fault phase.
	m["recovery.recover_ms"] = Metric{Value: millis(recoverTime), Unit: "ms"}
	m["recovery.catchup_ms"] = Metric{Value: millis(catchup), Unit: "ms"}
	m["recovery.service_gap_ms"] = Metric{Value: millis(r.longestGap()), Unit: "ms"}

	// Window deltas of the counters the layers export.
	a, b := tallies[0], tallies[1]
	a.sort()
	b.sort()
	ops := float64(a.completed())
	c := plain.counters
	var userBytes float64
	for k, n := range e.userBytes() {
		userBytes += float64(n * a.done[k])
	}
	perOp := func(x uint64, unit string) Metric {
		return Metric{Value: ratio(float64(x), ops), Unit: unit, N: a.completed()}
	}
	m["ringpaxos.msgs_per_op"] = perOp(c.ringMsgs, "count")
	m["ringpaxos.bytes_per_op"] = perOp(c.ringBytes, "B")
	m["ringpaxos.cmds_per_instance"] = Metric{Value: ratio(float64(c.executed), float64(c.delivered-c.skips)), Unit: "count", N: int(c.delivered - c.skips)}
	m["ringpaxos.skip_ratio"] = Metric{Value: ratio(float64(c.skips), float64(c.delivered)), Unit: "ratio", N: int(c.delivered)}
	m["ringpaxos.retransmits"] = Metric{Value: float64(c.retransmit), Unit: "count"}
	m["storage.sync_writes_per_op"] = perOp(c.syncWrites, "count")
	m["storage.bytes_per_user_byte"] = Metric{Value: ratio(float64(c.diskBytes), userBytes), Unit: "ratio", N: int(userBytes)}
	m["smr.executed_per_op"] = perOp(c.executed, "count")
	m["store.lease_hit_ratio"] = Metric{Value: ratio(float64(c.leaseReads), float64(a.done[kindRead])), Unit: "ratio", N: a.done[kindRead]}
	m["runtime.alloc_b_per_op"] = perOp(plain.allocB, "B")
	m["runtime.gc_pause_ms"] = Metric{Value: millis(plain.gcPause), Unit: "ms"}
	m["runtime.cpu_ms_per_kop"] = Metric{Value: ratio(millis(plain.cpu), ops/1000), Unit: "ms", N: a.completed()}
	for k, prefix := range kindPrefix {
		tailMetric(&res, prefix, a.latency[k])
	}
	local := localWrites(a)
	m["multiring.local_write_p50_us"] = Metric{Value: micros(percentile(local, 0.5)), Unit: "us", N: len(local)}

	// The traced window: counts at the endpoint boundary and stage medians.
	opsB := float64(b.completed())
	sent := float64(tp.msgs.Load())
	m["transport.msgs_per_op"] = Metric{Value: ratio(sent, opsB), Unit: "count", N: b.completed()}
	m["transport.bytes_per_op"] = Metric{Value: ratio(float64(tp.bytes.Load()), opsB), Unit: "B", N: b.completed()}
	m["transport.send_ns"] = Metric{Value: ratio(float64(tp.sendNs.Load()), sent), Unit: "ns", N: int(sent)}
	for name, types := range tapTypes {
		var n uint64
		for _, ty := range types {
			n += tp.byType[ty].Load()
		}
		m["transport."+name+"_msgs_per_op"] = Metric{Value: ratio(float64(n), opsB), Unit: "count", N: b.completed()}
	}
	// The spans are of commands on single-group rings, so the client-observed
	// latency they are set against is that of the writes those rings order.
	// client_side is what is left of that latency after the three stage
	// medians, so the four add up to it by definition. What is measured is
	// in_system, the median of the whole span from Proposal to Response, and
	// stage_sum_ratio, how much of it the three stage medians add up to:
	// medians need not add, and where stages trade off against each other
	// (a command that waited long for its batch waits less for the disk)
	// they do not.
	st := tp.join(e.writeRing)
	tracedWrites := localWrites(b)
	writeP50 := percentile(tracedWrites, 0.5)
	threeStages := st.intake + st.round + st.deliverExec
	m["ringpaxos.intake_us"] = Metric{Value: micros(st.intake), Unit: "us", N: st.spans}
	m["ringpaxos.round_us"] = Metric{Value: micros(st.round), Unit: "us", N: st.spans}
	m["smr.deliver_exec_us"] = Metric{Value: micros(st.deliverExec), Unit: "us", N: st.spans}
	m["smr.client_side_us"] = Metric{Value: micros(writeP50 - threeStages), Unit: "us", N: len(tracedWrites)}
	m["trace.in_system_us"] = Metric{Value: micros(st.inSystem), Unit: "us", N: st.spans}
	m["trace.stage_sum_ratio"] = Metric{Value: ratio(float64(threeStages), float64(st.inSystem)), Unit: "ratio", N: st.spans}
	m["trace.overhead_ratio"] = Metric{
		Value: ratio(opsB/traced.elapsed.Seconds(), ops/plain.elapsed.Seconds()), Unit: "ratio", N: b.completed()}

	e.stop()
	for name, v := range runMicro(o, tp, e) {
		m[name] = v
	}
	res.spans = tp.records(origin)
	return res, nil
}

// localWrites returns the latencies of the writes ordered by their own
// group's ring alone: the background session's where the measured session
// writes through the global ring (kv-wan), everybody's elsewhere.
func localWrites(t tally) []time.Duration {
	if len(t.background[kindWrite]) > 0 {
		return t.background[kindWrite]
	}
	return t.latency[kindWrite]
}

// tapTypes groups the message types the tap counts under the names of the
// transport.*_msgs_per_op metrics.
var tapTypes = map[string][]msg.Type{
	"proposal": {msg.TProposal},
	"phase2":   {msg.TPhase2},
	"decision": {msg.TDecision},
	"response": {msg.TResponse},
	"lease":    {msg.TLeaseRead, msg.TLeaseReply},
}

// metricNames returns the sorted names of a metric map.
func metricNames(m map[string]Metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
