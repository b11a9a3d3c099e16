package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/stats"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the tool sees, measured with tracing
// off. Every workload reports every one of them; README.md gives each
// workload's unit of work.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"replay_s", "s", "lower"},
	{"demo_bytes_per_unit", "B", "lower"},
	{"ok_frac", "fraction", "higher"},
	{"max_rss_mb", "MB", "lower"},
}

// opKinds are the visible-operation kinds core counts as "ops.<kind>".
var opKinds = func() []string {
	var ks []string
	for k := obs.KindYield; k <= obs.KindOp; k++ {
		ks = append(ks, k.String())
	}
	return ks
}()

// strategies are the scheduler strategies core counts as
// "sched.decisions.<strategy>".
var strategies = []string{
	demo.StrategyRandom.String(), demo.StrategyQueue.String(),
	demo.StrategyPCT.String(), demo.StrategyDelay.String(),
}

// demoSections are the constraint streams Demo.SectionSizes attributes.
var demoSections = []string{"queue", "syscall", "signal", "async"}

// perLayer are the metrics of single layers, read from the traced pass.
// A metric a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"core.new_us", "us", "lower"},
		{"core.run_s", "s", "lower"},
		{"core.ticks", "count", "lower"},
		{"core.threads", "count", "lower"},
		{"core.ns_per_tick", "ns", "lower"},
	}
	for _, k := range opKinds {
		ms = append(ms, metricDef{"core.ops." + k, "count", "lower"})
	}
	for _, s := range strategies {
		ms = append(ms, metricDef{"sched.decisions." + s, "count", "lower"})
	}
	ms = append(ms,
		metricDef{"tsan.races.record", "count", "higher"},
		metricDef{"tsan.races.replay", "count", "higher"},
	)
	for _, s := range demoSections {
		ms = append(ms, metricDef{"demo.bytes." + s, "B", "lower"})
	}
	return append(ms,
		metricDef{"demo.file_bytes", "B", "lower"},
		metricDef{"demo.v1_bytes", "B", "lower"},
		metricDef{"demo.read_ms", "ms", "lower"},
		metricDef{"demo.stream_new_us", "us", "lower"},
		metricDef{"demo.stream_run_us", "us", "lower"},
		metricDef{"env.vsleep_wall_us.p50", "us", "lower"},
		metricDef{"env.vsleep_wall_us.p99", "us", "lower"},
		metricDef{"env.req_ms.p50", "ms", "lower"},
		metricDef{"env.req_ms.p99", "ms", "lower"},
		metricDef{"env.virtual_s", "s", "higher"},
		metricDef{"env.compression_x", "x", "higher"},
		metricDef{"explore.trial_ms.p50", "ms", "lower"},
		metricDef{"explore.trial_ms.p99", "ms", "lower"},
		metricDef{"explore.busy_frac", "fraction", "higher"},
		metricDef{"explore.failing", "count", "higher"},
		metricDef{"explore.distinct", "count", "higher"},
		metricDef{"explore.mutants", "count", "higher"},
		metricDef{"explore.diverged", "count", "lower"},
		metricDef{"explore.dedupe_hits", "count", "higher"},
		metricDef{"explore.minimize_replays", "count", "lower"},
		metricDef{"explore.trials_to_deep_race", "count", "lower"},
		metricDef{"explore.verify_ms", "ms", "lower"},
		metricDef{"obs.overhead_frac", "fraction", "lower"},
		metricDef{"failed_frac", "fraction", "lower"},
	)
}()

// newLayer returns a per-layer map with every metric present at 0.
func newLayer() map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		l[m.name] = 0
	}
	return l
}

// addCounters copies the runtime's ops.* and sched.decisions.* counters
// into layer, averaged over the runs that fed the registry.
func addCounters(layer map[string]float64, mx *obs.Metrics, runs int) {
	if runs <= 0 {
		return
	}
	for _, k := range opKinds {
		layer["core.ops."+k] = float64(mx.CounterValue("ops."+k)) / float64(runs)
	}
	for _, s := range strategies {
		layer["sched.decisions."+s] = float64(mx.CounterValue("sched.decisions."+s)) / float64(runs)
	}
}

// samples collects per-layer observations by name: per-round values whose
// median a traced pass reports, and pooled distributions whose p50 and p99
// it reports.
type samples map[string]*stats.Sample

func (s samples) add(name string, v float64) {
	if s[name] == nil {
		s[name] = &stats.Sample{}
	}
	s[name].Add(v)
}

// mediansInto sets every per-layer metric that has samples to their median.
func (s samples) mediansInto(layer map[string]float64) {
	for name, x := range s {
		if _, ok := layer[name]; ok {
			layer[name] = x.Median()
		}
	}
}

// percentilesInto sets name.p50 and name.p99 from the pooled distribution
// name.
func (s samples) percentilesInto(layer map[string]float64, name string) {
	if x := s[name]; x != nil {
		layer[name+".p50"] = x.Quantile(0.50)
		layer[name+".p99"] = x.Quantile(0.99)
	}
}

// addDemo records a demo's per-stream sizes and its v1 encoding size.
func (s samples) addDemo(d *demo.Demo) {
	sizes := d.SectionSizes()
	for _, sec := range demoSections {
		s.add("demo.bytes."+sec, float64(sizes[sec]))
	}
	s.add("demo.v1_bytes", float64(d.Size()))
}

// addRun records one recorded execution's core-layer figures.
func addRun(s samples, run time.Duration, rep *core.Report) {
	s.add("core.run_s", run.Seconds())
	s.add("core.ticks", float64(rep.Ticks))
	s.add("core.threads", float64(rep.Threads))
	if rep.Ticks > 0 {
		s.add("core.ns_per_tick", float64(run)/float64(rep.Ticks))
	}
}
