// Explore: hunt a racy program at scale with internal/explore — shard
// controlled trials across a worker pool, dedupe the failures by
// signature, minimize each distinct failure's recording, and replay the
// minimized demo to prove it still pins down the bug. This is the
// workflow cmd/racehunt wraps in flags, shown end to end as a library.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/explore"
	"repro/internal/obs"
)

// program is a last-writer-wins aggregator with a missing lock around
// the shared total: two workers race on the read-modify-write, but only
// under schedules that interleave inside the critical region.
func program(rt *core.Runtime) func(*core.Thread) {
	return func(main *core.Thread) {
		total := core.NewVar(rt, "total", 0)
		mu := rt.NewMutex("mu")
		add := func(t *core.Thread, n int) {
			if n%2 == 0 {
				mu.Lock(t)
				defer mu.Unlock(t)
			} // bug: odd amounts skip the lock
			total.Write(t, total.Read(t)+n)
		}
		a := main.Spawn("even", func(t *core.Thread) { add(t, 2) })
		b := main.Spawn("odd", func(t *core.Thread) { add(t, 3) })
		main.Join(a)
		main.Join(b)
		main.Printf("total=%d\n", total.Read(main))
	}
}

func main() {
	workers := flag.Int("workers", 4, "worker pool size")
	trials := flag.Int("trials", 64, "trial budget")
	flag.Parse()

	// 1. Sweep: rotate the seed-determined strategies across the trial
	// budget. Every trial records, so any failure is already replayable.
	metrics := obs.NewMetrics()
	cfg := explore.Config{
		Program: core.Program{Name: "aggregator", Body: program},
		Source: &explore.SeedRotation{
			MasterSeed: 1,
			Strategies: []demo.Strategy{demo.StrategyRandom, demo.StrategyPCT, demo.StrategyDelay},
		},
		Trials:   *trials,
		Workers:  *workers,
		Minimize: true,
		Metrics:  metrics,
	}
	res, err := explore.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("ran %d trials (%.0f/sec): %d failing, %d distinct signatures\n",
		res.Trials, res.TrialsPerSec(), res.Failing, len(res.Failures))
	if len(res.Failures) == 0 {
		fmt.Println("no failure found; raise -trials")
		os.Exit(1)
	}

	// 2. Every distinct failure carries a minimized demo. The minimizer
	// binary-searches the recorded tick prefix and drops floated events,
	// re-validating each candidate by synchronised replay.
	f := res.Failures[0]
	fmt.Printf("first failure: trial %d (%s), %d duplicates deduped\n",
		f.Spec.Index, f.Spec.Strategy, f.Duplicates)
	for _, r := range f.Races {
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("  demo minimized %d -> %d bytes in %d replays\n",
		f.Demo.Size(), f.Minimized.Size(), f.MinimizeReplays)

	// 3. Replay the minimized demo directly: same schedule, same race,
	// forever.
	rt, err := core.New(core.ReplayOptions(f.Minimized))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, _ := rt.Run(program(rt))
	fmt.Printf("replay of minimized demo: races=%d softDesync=%v\n",
		rep.RaceCount(), rep.SoftDesync)
	if !rep.Failed() {
		fmt.Println("replay did not reproduce the failure")
		os.Exit(1)
	}

	// 4. The corpus is the artifact a hunting run leaves behind: JSON,
	// one entry per distinct failure, minimized demo inline.
	path := "corpus.json"
	if err := res.Corpus().WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("corpus with %d entries written to %s\n", len(res.Failures), path)
	fmt.Printf("\nmetrics:\n%s", metrics.Dump())
}
