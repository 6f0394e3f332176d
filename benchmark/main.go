// Command benchmark is the repository's benchmark: four named workloads over
// MRP-Store and dLog, client-observed end-to-end metrics, per-layer counts, a
// message-boundary trace and layer microbenchmarks. README.md in this
// directory says why each workload exists and which layer metric is expected
// to move which end-to-end metric.
//
//	bash benchmark/run.sh -seed 1                      every workload, every metric
//	bash benchmark/run.sh -workload kv-tcp -trace 0    one end-to-end run
//	bash benchmark/run.sh -reps 5 -out a.json          five repetitions, summarised
//	bash benchmark/run.sh -compare a.json b.json       apply the bounds of BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// machine is the line that says where the numbers were taken.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func thisMachine() machine {
	return machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload (default: all): "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", -1, "0: end-to-end run, tracing off; 1: per-layer run; -1: both")
	reps := fs.Int("reps", 1, "repetitions, each with the next seed")
	out := fs.String("out", "", "write the summarised results to this file")
	spansOut := fs.String("spans", "", "write the spans of the last traced run to this file")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || *reps < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		return 2
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q; have %s\n", *workloadName, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{w}
	}

	// The runs asked for. One run happens in this process and ends with the
	// verdict line: that is what the driver invokes.
	type one struct {
		workload string
		seed     int64
		traced   bool
	}
	var runs []one
	for rep := 0; rep < *reps; rep++ {
		for _, w := range selected {
			for _, traced := range []bool{false, true} {
				if *trace == 0 && traced || *trace == 1 && !traced {
					continue
				}
				runs = append(runs, one{w.name, *seed + int64(rep), traced})
			}
		}
	}
	m := thisMachine()
	if len(runs) == 1 {
		fmt.Printf("machine nproc=%d GOMAXPROCS=%d %s %s/%s\n", m.NProc, m.GOMAXPROCS, m.Go, m.OS, m.Arch)
		runOne := runEndToEnd
		if runs[0].traced {
			runOne = runTraced
		}
		res, err := runOne(selected[0], runs[0].seed, defaultOptions(*seconds))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printResult(res)
		if res.Trace && *spansOut != "" {
			if err := writeJSON(*spansOut, res.spans); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		line, _ := json.Marshal(res.verdict())
		fmt.Println(string(line))
		if !res.Correct {
			fmt.Fprintln(os.Stderr, "benchmark: verification failed")
			return 1
		}
		return 0
	}

	// Several runs: each in a process of its own, exactly as the driver makes
	// them, so that -out and -compare see what the driver sees. (Runs that
	// share a process are not independent: after the TCP and WAN workloads
	// have run in it, kv-sim and kv-tcp complete a tenth fewer operations a
	// second at the same CPU time per operation.)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	sum := newSummary(m, *seed, *reps, *seconds)
	ok := true
	for _, r := range runs {
		args := []string{"-workload", r.workload, "-seed", fmt.Sprint(r.seed), "-seconds", fmt.Sprint(*seconds), "-trace", "0"}
		if r.traced {
			args[len(args)-1] = "1"
			if *spansOut != "" {
				args = append(args, "-spans", *spansOut)
			}
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		// The last line is the run's verdict; the rest is for the reader.
		report, last, _ := strings.Cut(strings.TrimSuffix(string(stdout), "\n"), "\n{")
		fmt.Println(report)
		var v verdict
		if jerr := json.Unmarshal([]byte("{"+last), &v); jerr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d printed no verdict (%v)\n", r.workload, r.seed, err)
			return 1
		}
		sum.add(r.workload, v)
		ok = ok && err == nil && v.Correct
	}
	if *out != "" {
		sum.finish()
		if err := writeJSON(*out, sum); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: verification failed")
		return 1
	}
	return 0
}

// verdict is the last line of a run's output, as the driver reads it.
type verdict struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res result) verdict() verdict {
	v := verdict{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	for name, m := range res.Metrics {
		v.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	return v
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printResult prints every metric of a run by name with its unit and the
// sample count behind it.
func printResult(res result) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer"
	}
	fmt.Printf("%s seed=%d %s: attempted=%d failed=%d fail_ratio=%g correct=%v\n",
		res.Workload, res.Seed, mode, res.Attempted, res.Failed,
		ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	for _, name := range metricNames(res.Metrics) {
		v := res.Metrics[name]
		fmt.Printf("  %-32s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.N)
	}
	for _, p := range res.Problems {
		fmt.Printf("  ! %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
