package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// The schedule is the netload workload's whole input: it must be a pure
// function of (seed, round), and its digest must tell inputs apart.
func TestScheduleDigestDeterministic(t *testing.T) {
	a := scheduleDigest(newSchedule(7, 0, netloadSpec), newSchedule(7, 1, netloadSpec))
	b := scheduleDigest(newSchedule(7, 0, netloadSpec), newSchedule(7, 1, netloadSpec))
	if a != b {
		t.Fatalf("same seed gave digests %s and %s", a, b)
	}
	for _, other := range []string{
		scheduleDigest(newSchedule(8, 0, netloadSpec), newSchedule(8, 1, netloadSpec)),
		scheduleDigest(newSchedule(7, 1, netloadSpec), newSchedule(7, 0, netloadSpec)),
		scheduleDigest(newSchedule(7, 0, netloadSpec)),
	} {
		if other == a {
			t.Fatalf("different inputs share digest %s", a)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	arr := newSchedule(3, 0, netloadSpec)
	if len(arr) != netloadSpec.conns {
		t.Fatalf("got %d arrivals, want %d", len(arr), netloadSpec.conns)
	}
	var total time.Duration
	for _, a := range arr {
		if a.gap <= 0 || a.rank < 0 || a.rank >= netloadSpec.paths {
			t.Fatalf("bad arrival %+v", a)
		}
		total += a.gap
	}
	mean := total / time.Duration(len(arr))
	if mean < netloadSpec.meanGap*8/10 || mean > netloadSpec.meanGap*12/10 {
		t.Fatalf("mean gap %v, want about %v", mean, netloadSpec.meanGap)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("metric %q with unit %q breaks the naming rules", m.name, m.unit)
			}
			if m.better != "higher" && m.better != "lower" {
				t.Errorf("metric %q: better is %q", m.name, m.better)
			}
			if seen[m.name] {
				t.Errorf("metric %q is declared twice", m.name)
			}
			seen[m.name] = true
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", len(endToEnd), len(perLayer))
	}
	if endToEnd[0] != (metricDef{"setup_s", "s", "lower"}) {
		t.Errorf("first end-to-end metric is %+v, want setup_s", endToEnd[0])
	}
	layer := newLayer()
	if len(layer) != len(perLayer) {
		t.Errorf("newLayer has %d metrics, want %d", len(layer), len(perLayer))
	}
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program reports %+v", kind, i, g, m)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program has %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
