//tsanrec:external benchmark harness: runs and times whole Runtimes from outside the program under test
package main

import (
	"time"

	"repro/internal/apps/modes"
	"repro/internal/apps/parsec"
	"repro/internal/core"
	"repro/internal/prng"
)

// The barrier-wide workload: the streamcluster kernel with 1024 threads
// under queue+rec, recording in memory, then a strict replay. Barrier
// mutex and condvar handoffs across 1024-entry vector clocks dominate.
// Unit of work: one visible operation (tick).
const (
	barrierThreads = 1024
	// A round takes seconds, so each times several set-up samples.
	barrierSetupSamples = 4
)

func barrierOptions(p *pass, round int) core.Options {
	runSeed, _ := prng.Derive(p.seed^0x62617272, uint64(round))
	opts, err := modes.Options("queue+rec", runSeed, true)
	if err != nil {
		panic(err) // a fixed, known mode name
	}
	opts.MaxTicks = 20_000_000
	opts.WallTimeout = 120 * time.Second
	opts.Trace, opts.Metrics = p.tr, p.mx
	return opts
}

func runBarrier(p *pass) *outcome {
	o := &outcome{layer: newLayer(), aliases: map[string]string{
		"throughput_per_s": "ticks_per_s", "demo_bytes_per_unit": "demo_bytes_per_tick",
	}}
	sc, ok := parsec.ByName("streamcluster")
	if !ok {
		panic("tsanbench: parsec kernel streamcluster is missing")
	}
	s := samples{}
	runs := 0
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < p.budget; round++ {
		// In-memory recording starts no goroutine before Run, so set-up
		// alone can be repeated and the unrun runtimes dropped.
		o.timeSetups(barrierSetupSamples, func(i int) time.Duration {
			t0 := time.Now()
			if rt, err := core.New(barrierOptions(p, i)); err == nil {
				sc.Body(rt, barrierThreads, 1)
			}
			return time.Since(t0)
		})
		opts := barrierOptions(p, round)
		t0 := time.Now()
		rt, err := core.New(opts)
		newDur := time.Since(t0)
		if err != nil {
			o.check(false, "round %d: core.New: %v", round, err)
			continue
		}
		t1 := time.Now()
		rep, err := rt.Run(sc.Body(rt, barrierThreads, 1))
		run := time.Since(t1)
		o.check(err == nil, "round %d: record run: %v", round, err)
		if err != nil {
			continue
		}
		runs++
		o.rate.Add(float64(rep.Ticks) / run.Seconds())
		o.demoBytes.Add(float64(rep.Demo.Size()) / float64(rep.Ticks))

		ropts := core.ReplayOptions(rep.Demo)
		ropts.MaxTicks, ropts.WallTimeout = opts.MaxTicks, opts.WallTimeout
		ropts.Trace = p.tr
		t2 := time.Now()
		rrt, err := core.New(ropts)
		var rrep *core.Report
		if err == nil {
			rrep, err = rrt.Run(sc.Body(rrt, barrierThreads, 1))
		}
		o.replay.Add(time.Since(t2).Seconds())
		msg := replayMatches(rrep, err, rep)
		o.check(msg == "", "round %d: replay: %s", round, msg)

		if p.traced() {
			s.add("core.new_us", float64(newDur)/float64(time.Microsecond))
			addRun(s, run, rep)
			s.add("tsan.races.record", float64(rep.RaceCount()))
			if rrep != nil {
				s.add("tsan.races.replay", float64(rrep.RaceCount()))
			}
			s.addDemo(rep.Demo)
		}
	}
	if p.traced() {
		s.mediansInto(o.layer)
		addCounters(o.layer, p.mx, runs)
	}
	return o
}
