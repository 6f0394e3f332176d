// Command mrp-bench regenerates the tables and figures of the paper's
// evaluation (Section 8) and prints them as text reports.
//
// Usage:
//
//	mrp-bench [-fig 3|4|5|6|7|8|rebalance|merge|autoshard|txn|latency|reads|ablations|all]
//	          [-seconds 1.5] [-scale 0.25] [-clients 40] [-records 5000] [-v]
//
// The txn, latency, and reads figures additionally write their rows as
// machine-readable JSON (BENCH_txn.json / BENCH_latency.json /
// BENCH_reads.json, uploaded as CI artifacts).
//
// Absolute numbers depend on the host; the shapes (who wins, scaling
// factors, crossovers) are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mrp/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 3,4,5,6,7,8,rebalance,merge,autoshard,txn,latency,reads,ablations,all")
	seconds := flag.Float64("seconds", 1.5, "measured seconds per data point")
	scale := flag.Float64("scale", 0.25, "time scale for WAN latencies and disk service times")
	clients := flag.Int("clients", 40, "client threads for the YCSB comparison")
	records := flag.Int("records", 5000, "preloaded records for the YCSB comparison")
	verbose := flag.Bool("v", false, "print progress while measuring")
	flag.Parse()

	opts := bench.Options{
		PointSeconds: *seconds,
		Scale:        *scale,
		Clients:      *clients,
		Records:      *records,
	}
	if *verbose {
		opts.Out = os.Stderr
	}
	w := os.Stdout

	run := func(name string, fn func(io.Writer, bench.Options)) {
		if *fig != "all" && *fig != name {
			return
		}
		fn(w, opts)
		fmt.Fprintln(w)
	}
	run("3", func(w io.Writer, o bench.Options) { bench.RenderFig3(w, bench.Fig3(o)) })
	run("4", func(w io.Writer, o bench.Options) { bench.RenderFig4(w, bench.Fig4(o)) })
	run("5", func(w io.Writer, o bench.Options) { bench.RenderFig5(w, bench.Fig5(o)) })
	run("6", func(w io.Writer, o bench.Options) { bench.RenderFig6(w, bench.Fig6(o)) })
	run("7", func(w io.Writer, o bench.Options) { bench.RenderFig7(w, bench.Fig7(o)) })
	run("8", func(w io.Writer, o bench.Options) { bench.RenderFig8(w, bench.Fig8(o)) })
	run("rebalance", func(w io.Writer, o bench.Options) { bench.RenderRebalance(w, bench.Rebalance(o)) })
	run("merge", func(w io.Writer, o bench.Options) { bench.RenderMerge(w, bench.Merge(o)) })
	run("autoshard", func(w io.Writer, o bench.Options) { bench.RenderAutoshard(w, bench.Autoshard(o)) })
	run("txn", func(w io.Writer, o bench.Options) {
		rows := bench.Txn(o)
		bench.RenderTxn(w, rows)
		if err := bench.WriteTxnJSON("BENCH_txn.json", rows); err != nil {
			fmt.Fprintf(os.Stderr, "write BENCH_txn.json: %v\n", err)
			os.Exit(1)
		}
	})
	run("latency", func(w io.Writer, o bench.Options) {
		rows := bench.Latency(o)
		bench.RenderLatency(w, rows)
		if err := bench.WriteLatencyJSON("BENCH_latency.json", rows); err != nil {
			fmt.Fprintf(os.Stderr, "write BENCH_latency.json: %v\n", err)
			os.Exit(1)
		}
	})
	run("reads", func(w io.Writer, o bench.Options) {
		rows := bench.Reads(o)
		bench.RenderReads(w, rows)
		if err := bench.WriteReadsJSON("BENCH_reads.json", rows); err != nil {
			fmt.Fprintf(os.Stderr, "write BENCH_reads.json: %v\n", err)
			os.Exit(1)
		}
	})
	run("ablations", func(w io.Writer, o bench.Options) {
		rows := append(bench.AblationBatching(o), bench.AblationTransportBatch(o)...)
		rows = append(rows, bench.AblationSkip(o)...)
		bench.RenderAblations(w, rows)
	})
}
