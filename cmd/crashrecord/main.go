// Command crashrecord exercises crash-safe streaming recording end to end:
// record a litmus program to an append-only v2 demo stream (surviving
// SIGKILL mid-run), then recover and replay whatever prefix the file holds.
// It is the driver behind the CI crash-recovery smoke test, and a handy
// way to try the deployable-recording workflow by hand.
//
// Usage:
//
//	crashrecord -program ms-queue -record run.demo2 [-reps 100000]
//	            [-strategy queue] [-seed 1] [-flush 5ms]
//	crashrecord -program ms-queue -replay run.demo2
//
// Record mode runs the program body -reps times inside one controlled
// execution, streaming the recording to -record as it goes; kill the
// process at any point and the file keeps a consistent prefix. Replay mode
// loads the file (demo.ReadFile for a complete recording, falling back to
// demo.Recover for a torn one) and replays it, printing
// "replay synchronised: ..." on success — the line the CI smoke greps for.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/apps/litmus"
	"repro/internal/core"
	"repro/internal/demo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("crashrecord", flag.ContinueOnError)
	fs.SetOutput(errOut)
	programName := fs.String("program", "ms-queue", "litmus program to run")
	recordPath := fs.String("record", "", "stream a recording of the run to this path")
	replayPath := fs.String("replay", "", "replay the demo stream at this path (recovering a torn file)")
	reps := fs.Int("reps", 1, "repetitions of the program body inside one recorded execution")
	strategy := fs.String("strategy", "queue", "scheduling strategy for record mode (rnd, queue, pct, delay)")
	seed := fs.Uint64("seed", 1, "PRNG seed for record mode")
	flush := fs.Duration("flush", 0, "streaming flush interval (0 = 25ms default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*recordPath == "") == (*replayPath == "") {
		fmt.Fprintln(errOut, "usage: crashrecord -program P (-record path | -replay path)")
		return 2
	}
	p, ok := litmus.ByName(*programName)
	if !ok {
		fmt.Fprintf(errOut, "unknown program %q; available: %s\n", *programName, strings.Join(litmus.Names(), " "))
		return 2
	}

	if *recordPath != "" {
		strat, err := demo.ParseStrategy(*strategy)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
		opts := core.RecordOptions(strat, *seed, *seed^0x9e3779b97f4a7c15)
		opts.RecordPath = *recordPath
		opts.RecordFlushInterval = *flush
		// A long recording is the point: raise the budgets so -reps in the
		// hundreds of thousands does not trip the runaway guards.
		opts.MaxTicks = 2_000_000_000
		opts.WallTimeout = time.Hour
		rt, err := core.New(opts)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		body := p.Body(rt)
		fmt.Fprintf(out, "recording %s x%d to %s\n", p.Name, *reps, *recordPath)
		rep, err := rt.Run(func(t *core.Thread) {
			for i := 0; i < *reps; i++ {
				body(t)
			}
		})
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		fmt.Fprintf(out, "recording complete: %d ticks, %d races, %d bytes\n",
			rep.Ticks, rep.RaceCount(), rep.Demo.Size())
		return 0
	}

	d, err := demo.ReadFile(*replayPath)
	recovered := false
	if err != nil {
		d, err = demo.Recover(*replayPath)
		recovered = true
	}
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	if recovered {
		fmt.Fprintf(out, "recovered prefix: final tick %d, truncated=%v\n", d.FinalTick, d.Truncated)
	}
	ropts := core.ReplayOptions(d)
	ropts.MaxTicks = 2_000_000_000
	ropts.WallTimeout = time.Hour
	rt, err := core.New(ropts)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	body := p.Body(rt)
	rep, _ := rt.Run(func(t *core.Thread) {
		for i := 0; i < *reps; i++ {
			body(t)
		}
	})
	if rep.Err != nil {
		fmt.Fprintf(errOut, "replay FAILED: %v\n", rep.Err)
		return 1
	}
	fmt.Fprintf(out, "replay synchronised: %d ticks, %d races, softDesync=%v, truncated=%v\n",
		rep.Ticks, rep.RaceCount(), rep.SoftDesync, d.Truncated)
	return 0
}
