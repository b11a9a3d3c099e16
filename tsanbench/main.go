// Command tsanbench is the repository's end-to-end benchmark. It drives one
// workload per process through the public APIs of core, env, demo, explore
// and the netload, parsec and litmus apps, checks that every output is
// correct, and prints one JSON result line.
//
// Usage (normally through run.py, which builds this binary first):
//
//	tsanbench --workload netload|hunt|barrier-wide \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run measures half its time untraced and
// half with an obs.Tracer and obs.Metrics attached, and the result carries
// the per-layer metrics, including the tracing overhead. The exit code is
// 0 only when every output check passed.
//
//tsanrec:external benchmark harness: runs and times whole Runtimes from outside the program under test
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// workload is one benchmark input set. run executes a timed pass of the
// workload for roughly the pass's budget and returns what it measured.
type workload struct {
	name string
	run  func(p *pass) *outcome
}

var workloads = []workload{
	{"netload", runNetload},
	{"hunt", runHunt},
	{"barrier-wide", runBarrier},
}

// minRounds is the fewest rounds a pass runs however short its budget, so
// that every median has at least three samples.
const minRounds = 3

// pass is one timed pass of a workload: untraced (tr and mx nil) or traced.
type pass struct {
	seed   uint64
	budget time.Duration
	tr     *obs.Tracer
	mx     *obs.Metrics
	dir    string // scratch directory for demo files, inside the checkout
}

func (p *pass) traced() bool { return p.tr != nil }

// scratchFile names a file in the pass's scratch directory.
func (p *pass) scratchFile(format string, args ...any) string {
	return filepath.Join(p.dir, fmt.Sprintf(format, args...))
}

// outcome is what one pass measured. The samples feed the end-to-end
// medians; layer is filled only by traced passes.
type outcome struct {
	setup     stats.Sample // seconds per set-up
	rate      stats.Sample // units of work per second, per round
	replay    stats.Sample // seconds per strict replay
	demoBytes stats.Sample // demo bytes per unit of work, per round
	attempted int
	failed    int
	problems  []string
	layer     map[string]float64
	aliases   map[string]string // end-to-end metric -> the workload's own name for it
	notes     []string          // human-readable lines printed before the result
}

// fail records n failed operations with one description.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted invariant and records it as failed if !ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(1, format, args...)
	}
}

// Set-up is timed on its own, in batches that repeat it with no file and no
// run behind it, so that setup_s measures CPU work and not the disk. Each
// round times the same number of batches, so that the setup_s samples
// spread over the run as the rounds do, and each sample is the mean of a
// batch spanning at least setupSpan, so that neither a single GC pause nor
// the clock's resolution decides it.
const setupSpan = 10 * time.Millisecond

// timeSetups records n samples, each the mean over a batch of calls to
// setup. setup returns how long the set-up part of its call took.
func (o *outcome) timeSetups(n int, setup func(i int) time.Duration) {
	for ; n > 0; n-- {
		var sum time.Duration
		calls := 0
		for ; sum < setupSpan; calls++ {
			sum += setup(calls)
		}
		o.setup.Add(sum.Seconds() / float64(calls))
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: netload, hunt or barrier-wide")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "tsanbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tsanbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsanbench: scratch directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Println(hostFingerprint())
	// Each pass writes into a directory of its own; files stay until the
	// run ends, so that removing them puts no file system work inside a
	// timed phase.
	runPass := func(p *pass) *outcome {
		d, err := os.MkdirTemp(dir, "pass-")
		if err != nil {
			o := &outcome{layer: newLayer()}
			o.check(false, "scratch directory: %v", err)
			return o
		}
		p.dir = d
		return wl.run(p)
	}
	budget := time.Duration(*seconds) * time.Second
	steal0, total0 := cpuTimes()
	var plain, traced *outcome
	if *trace == 0 {
		plain = runPass(&pass{seed: *seed, budget: budget})
	} else {
		plain = runPass(&pass{seed: *seed, budget: budget / 2})
		tr := obs.NewTracer(1 << 16)
		tr.Enable()
		traced = runPass(&pass{seed: *seed, budget: budget / 2, tr: tr, mx: obs.NewMetrics()})
	}
	if steal1, total1 := cpuTimes(); total1 > total0 {
		fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the timed passes\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}

	for _, n := range plain.notes {
		fmt.Println(n)
	}
	fmt.Printf("%s per round: throughput %s; replay_s %s; setup_s %s\n",
		*name, quartiles(&plain.rate), quartiles(&plain.replay), quartiles(&plain.setup))
	res := result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricValue{}}
	problems := plain.problems
	if traced == nil {
		e2e := endToEndValues(plain)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
			if alias := plain.aliases[m.name]; alias != "" {
				fmt.Printf("%s %s (%s) = %v %s\n", *name, m.name, alias, e2e[m.name], m.unit)
			}
		}
	} else {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		problems = append(problems, traced.problems...)
		fmt.Printf("%s traced per round: throughput %s\n", *name, quartiles(&traced.rate))
		if plain.rate.N() > 0 && traced.rate.N() > 0 {
			traced.layer["obs.overhead_frac"] = plain.rate.Median()/traced.rate.Median() - 1
		}
		traced.layer["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: traced.layer[m.name], Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsanbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndValues reduces an untraced pass to the end-to-end metrics.
func endToEndValues(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":             o.setup.Median(),
		"throughput_per_s":    o.rate.Median(),
		"replay_s":            o.replay.Median(),
		"demo_bytes_per_unit": o.demoBytes.Median(),
		"ok_frac":             1 - float64(o.failed)/float64(max(o.attempted, 1)),
		"max_rss_mb":          maxRSSMB(),
	}
}

// quartiles summarises a sample for the human-readable lines.
func quartiles(s *stats.Sample) string {
	return fmt.Sprintf("n=%d q1=%.6g median=%.6g q3=%.6g", s.N(), s.Quantile(0.25), s.Median(), s.Quantile(0.75))
}

// maxRSSMB is the peak resident set of this process, which runs exactly
// one workload.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTimes returns the machine's stolen and total CPU time so far, in
// clock ticks, from /proc/stat (0, 0 where it cannot be read). Time stolen
// by the hypervisor for other guests slows every wall-time figure, so a
// run prints how much there was, to tell a busy host from a slow program.
func cpuTimes() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user .. steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// hostFingerprint labels the numbers with the machine that produced them.
func hostFingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
