// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark-trajectory point on stdout. CI runs it after the scheduler
// benchmarks and archives the result as BENCH_<date>.json, so per-op cost
// regressions show up as a series rather than a single lost log line.
//
// Usage:
//
//	go test -bench BenchmarkVisibleOpThreads -run '^$' . | benchjson -date 2026-08-06 -commit abc123
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line. BytesPerOp/AllocsPerOp are present only
// when the run used -benchmem; they are pointers so that a genuine
// measured zero (the detector release path's target) survives JSON
// round-tripping distinct from "not measured". Metrics holds every
// "value unit" pair of the line, custom b.ReportMetric units included.
type Result struct {
	Name        string             `json:"name"`
	Iters       int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
}

// Point is one trajectory entry: every benchmark of one run.
type Point struct {
	Date    string   `json:"date,omitempty"`
	Commit  string   `json:"commit,omitempty"`
	Results []Result `json:"results"`
}

// parseLine parses one result line: the benchmark name, the iteration
// count, then "value unit" pairs in any order. ok is false for lines that
// are not results (headers, logs, a name printed alone before its result).
func parseLine(line string) (r Result, ok bool, err error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false, nil
	}
	iters, perr := strconv.ParseInt(f[1], 10, 64)
	if perr != nil {
		return Result{}, false, nil
	}
	r = Result{Name: f[0], Iters: iters, Metrics: make(map[string]float64)}
	for i := 2; i < len(f); i += 2 {
		v, perr := strconv.ParseFloat(f[i], 64)
		if perr != nil {
			return Result{}, false, fmt.Errorf("benchjson: bad %s value in %q: %v", f[i+1], line, perr)
		}
		r.Metrics[f[i+1]] = v
	}
	ns, ok := r.Metrics["ns/op"]
	if !ok {
		return Result{}, false, nil
	}
	r.NsPerOp = ns
	if v, ok := r.Metrics["B/op"]; ok {
		r.BytesPerOp = &v
	}
	if v, ok := r.Metrics["allocs/op"]; ok {
		r.AllocsPerOp = &v
	}
	return r, true, nil
}

func run(in io.Reader, out io.Writer, date, commit string) error {
	p := Point{Date: date, Commit: commit}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		r, ok, err := parseLine(sc.Text())
		if err != nil {
			return err
		}
		if ok {
			p.Results = append(p.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(p.Results) == 0 {
		return fmt.Errorf("benchjson: no benchmark result lines on stdin")
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

func main() {
	date := flag.String("date", "", "ISO date stamp for the trajectory point")
	commit := flag.String("commit", "", "commit hash the benchmarks ran at")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *date, *commit); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
