package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// summary is the -out file: for every workload, every metric's values over
// the repetitions with their quartiles. baseline.json is one of these.
type summary struct {
	Machine   machine                     `json:"machine"`
	Seed      int64                       `json:"seed"`
	Reps      int                         `json:"reps"`
	Seconds   float64                     `json:"seconds"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	FailRatio float64                   `json:"fail_ratio"`
	Metrics   map[string]*metricSummary `json:"metrics"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func newSummary(m machine, seed int64, reps int, seconds float64) *summary {
	return &summary{Machine: m, Seed: seed, Reps: reps, Seconds: seconds, Workloads: map[string]*workloadSummary{}}
}

func (s *summary) add(workload string, v verdict) {
	ws := s.Workloads[workload]
	if ws == nil {
		ws = &workloadSummary{Metrics: map[string]*metricSummary{}}
		s.Workloads[workload] = ws
	}
	ws.Attempted += v.Attempted
	ws.Failed += v.Failed
	for name, m := range v.Metrics {
		ms := ws.Metrics[name]
		if ms == nil {
			ms = &metricSummary{Unit: m.Unit}
			ws.Metrics[name] = ms
		}
		ms.Values = append(ms.Values, m.Value)
	}
}

func (s *summary) finish() {
	for _, ws := range s.Workloads {
		ws.FailRatio = ratio(float64(ws.Failed), float64(ws.Attempted))
		for _, ms := range ws.Metrics {
			ms.Q1, ms.Median, ms.Q3 = quartiles(ms.Values)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound to two sets of runs. The spread of a set
// is the distance between its quartiles as a share of its median; where
// either spread is wider than the bound the runs cannot tell a regression
// of that size from noise, and the verdict is unresolved, not ok.
func judge(spec metricSpec, a, b *metricSummary) (verdict string, change, spread float64) {
	spread = ratio(a.Q3-a.Q1, a.Median)
	if s := ratio(b.Q3-b.Q1, b.Median); s > spread {
		spread = s
	}
	change = ratio(b.Median-a.Median, a.Median) // positive: b is larger
	worse := change
	if spec.Better == "higher" {
		worse = -change
	}
	switch {
	case spread > spec.Bound:
		return verdictUnresolved, change, spread
	case worse > spec.Bound:
		return verdictRegressed, change, spread
	}
	return verdictOK, change, spread
}

// compareFiles prints, one row per workload, the verdict of every end-to-end
// metric of BENCHMARK.json for b against a. It returns non-zero when a
// metric regressed or b failed a larger share of what it attempted.
func compareFiles(w io.Writer, specPath, aPath, bPath string) int {
	var spec benchmarkSpec
	var a, b summary
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-10s missing from %s\n", name, bPath)
			code = 1
			continue
		}
		row := verdictOK
		var details []string
		for _, ms := range spec.EndToEnd {
			ma, mb := wa.Metrics[ms.Name], wb.Metrics[ms.Name]
			if ma == nil || mb == nil {
				details = append(details, ms.Name+" missing")
				row, code = verdictRegressed, 1
				continue
			}
			v, change, spread := judge(ms, ma, mb)
			if v != verdictOK {
				details = append(details, fmt.Sprintf("%s %s (%+.1f%%, spread %.1f%%, bound %.0f%%)",
					ms.Name, v, 100*change, 100*spread, 100*ms.Bound))
			}
			if v == verdictRegressed {
				row, code = verdictRegressed, 1
			} else if v == verdictUnresolved && row == verdictOK {
				row = verdictUnresolved
			}
		}
		if wb.FailRatio > wa.FailRatio {
			details = append(details, fmt.Sprintf("fail_ratio rose %g -> %g", wa.FailRatio, wb.FailRatio))
			row, code = verdictRegressed, 1
		}
		fmt.Fprintf(w, "%-10s %-10s fail_ratio %g -> %g", name, row, wa.FailRatio, wb.FailRatio)
		for _, d := range details {
			fmt.Fprintf(w, "\n           %s", d)
		}
		fmt.Fprintln(w)
	}
	return code
}
