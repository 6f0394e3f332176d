// Package bench is the experiment harness: one driver per table/figure of
// the paper's evaluation (Section 8), producing the same rows and series
// the paper reports.
//
//	Fig3     Multi-Ring Paxos baseline: storage modes × request sizes
//	Fig4     MRP-Store vs Cassandra-like vs MySQL-like under YCSB A-F
//	Fig5     dLog vs Bookkeeper-like, 1 KB synchronous appends
//	Fig6     dLog vertical scalability: 1-5 rings, one disk each
//	Fig7     MRP-Store horizontal scalability across 4 EC2 regions
//	Fig8     impact of replica failure and recovery over time
//	Rebalance impact of a live partition split (elastic rebalancing)
//	Merge    split → merge round trip with ring retirement (bidirectional
//	         elasticity)
//	Autoshard load-driven controller splitting a hot partition and merging
//	         it back after the skew shifts (auto-sharding policy)
//
// Absolute numbers differ from the paper (the substrate is a simulator on
// one host, not a 32-core cluster), but the shapes — who wins, by what
// factor, where the crossovers are — are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// Options control experiment scale so the full suite fits in CI while the
// same code can run much longer measurements.
type Options struct {
	// PointSeconds is the measured duration per data point.
	PointSeconds float64
	// Scale compresses simulated time: WAN latencies and disk service
	// times are multiplied by Scale (<1 means faster and smaller).
	Scale float64
	// Clients is the client-thread count for the YCSB comparison
	// (the paper uses 100).
	Clients int
	// Records is the preloaded record count for the YCSB comparison.
	Records int
	// Out receives progress lines (nil = silent).
	Out io.Writer
}

// FromEnv builds options from environment variables, falling back to CI
// scale: MRP_BENCH_SECONDS, MRP_BENCH_SCALE, MRP_BENCH_CLIENTS,
// MRP_BENCH_RECORDS.
func FromEnv() Options {
	o := Options{
		PointSeconds: envFloat("MRP_BENCH_SECONDS", 1.5),
		Scale:        envFloat("MRP_BENCH_SCALE", 0.25),
		Clients:      int(envFloat("MRP_BENCH_CLIENTS", 40)),
		Records:      int(envFloat("MRP_BENCH_RECORDS", 5000)),
	}
	return o
}

func envFloat(name string, def float64) float64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func (o Options) point() time.Duration {
	return time.Duration(o.PointSeconds * float64(time.Second))
}

func (o Options) logf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}
