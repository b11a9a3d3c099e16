package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkVisibleOpThreads/threads-2         	16940679	        81.36 ns/op
BenchmarkVisibleOpThreads/threads-128       	17494032	        67.65 ns/op
BenchmarkAtomicRelease/threads=128         	 4865202	        57.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkMutexHandoff/threads=128          	  657889	       317.4 ns/op	    1023 B/op	       1 allocs/op
BenchmarkExploreNeedle/rnd-2               	      12	  95000000 ns/op	        41.00 first_failure_trial	     2.500 races/run	   41200 B/op	     310 allocs/op
BenchmarkExploreNeedle/rnd-2
PASS
ok  	repro	8.532s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleOutput), &out, "2026-08-06", "abc123"); err != nil {
		t.Fatal(err)
	}
	var p Point
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if p.Date != "2026-08-06" || p.Commit != "abc123" {
		t.Errorf("stamp = %q/%q", p.Date, p.Commit)
	}
	if len(p.Results) != 5 {
		t.Fatalf("parsed %d results, want 5: %+v", len(p.Results), p.Results)
	}
	want := Result{Name: "BenchmarkVisibleOpThreads/threads-2", Iters: 16940679, NsPerOp: 81.36,
		Metrics: map[string]float64{"ns/op": 81.36}}
	if !reflect.DeepEqual(p.Results[0], want) {
		t.Errorf("first result = %+v, want %+v", p.Results[0], want)
	}
	if r := p.Results[0]; r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Errorf("line without -benchmem got memory stats: %+v", r)
	}
	// A measured zero must survive as 0, distinct from absent.
	if r := p.Results[2]; r.Name != "BenchmarkAtomicRelease/threads=128" ||
		r.BytesPerOp == nil || *r.BytesPerOp != 0 ||
		r.AllocsPerOp == nil || *r.AllocsPerOp != 0 {
		t.Errorf("benchmem zero result = %+v, want explicit 0 B/op and 0 allocs/op", r)
	}
	if r := p.Results[3]; r.BytesPerOp == nil || *r.BytesPerOp != 1023 ||
		r.AllocsPerOp == nil || *r.AllocsPerOp != 1 {
		t.Errorf("benchmem result = %+v, want 1023 B/op and 1 allocs/op", r)
	}
	// Custom metrics ahead of B/op must neither be dropped nor hide the
	// memory stats behind them.
	if r := p.Results[4]; r.Metrics["first_failure_trial"] != 41 || r.Metrics["races/run"] != 2.5 ||
		r.BytesPerOp == nil || *r.BytesPerOp != 41200 ||
		r.AllocsPerOp == nil || *r.AllocsPerOp != 310 {
		t.Errorf("custom-metric result = %+v, want first_failure_trial, races/run, B/op and allocs/op", r)
	}
	if !strings.Contains(out.String(), `"bytes_per_op": 0`) {
		t.Errorf("JSON omitted the measured-zero bytes_per_op:\n%s", out.String())
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("PASS\nok\n"), &out, "", ""); err == nil {
		t.Error("no error for input without benchmark lines")
	}
}
