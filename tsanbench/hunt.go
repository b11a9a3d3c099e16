//tsanrec:external benchmark harness: runs and times whole exploration sweeps and Runtimes from outside
package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/apps/litmus"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/prng"
)

// The hunt workload: explore.Run over the needle litmus program, with a
// rnd,pct seed rotation interleaved 1:1 with a MutationQueue, on 2
// workers, recording in memory. Each distinct failure is minimized and
// then verified by strict replay. Unit of work: one trial.
//
// A pass cycles through huntMasters hunts whose master seeds derive from
// the run's seed; hunt 0 uses the seed itself. Averaging over several
// hunts keeps one seed's trial mix from deciding a run's figure.
//
// Hunt 0 is also run once, untimed, with Config.RecordDir set, so that
// every fresh trial streams its recording to its own file; it must find
// exactly what the in-memory sweeps of hunt 0 found. A timed streamed sweep is fsync-bound and its rate drifts with
// the host's disk by more than any bound could absorb, so the per-run cost
// of streamed recording is reported per layer instead (demo.stream_*_us),
// from probe trials next to in-memory ones (core.new_us, core.run_s).
const (
	huntTrials  = 4000
	huntWorkers = 2
	huntMasters = 8
	verifyReps  = 10  // strict replays per distinct failure and sweep
	probeTrials = 200 // direct core.New+Run trials per recording mode, timed by a traced pass
	deepMark    = "needle.deep"
)

func masterSeed(seed uint64, hunt int) uint64 {
	if hunt == 0 {
		return seed
	}
	m, _ := prng.Derive(seed, uint64(hunt))
	return m
}

// huntConfig builds one sweep's configuration. Sources are stateful, so
// every sweep gets fresh ones.
func huntConfig(master uint64, recordDir string, tr *obs.Tracer, mx *obs.Metrics) explore.Config {
	needle := needleProgram()
	rot := &explore.SeedRotation{MasterSeed: master, Strategies: []demo.Strategy{demo.StrategyRandom, demo.StrategyPCT}}
	mq := &explore.MutationQueue{Seed: master ^ 0x6d757461}
	src, err := explore.NewWeightedSource([]explore.TrialSource{rot, mq}, []int{1, 1})
	if err != nil {
		panic(err) // two sources with positive weights
	}
	return explore.Config{
		Program:           explore.Program{Name: needle.Name, Body: needle.Body},
		Source:            src,
		Trials:            huntTrials,
		Workers:           huntWorkers,
		RescheduleQuantum: -1, // no forced rescheduling: trials are pure functions of their seeds
		Minimize:          true,
		RecordDir:         recordDir,
		Trace:             tr,
		Metrics:           mx,
	}
}

func needleProgram() litmus.Program {
	needle, ok := litmus.ByName("needle")
	if !ok {
		panic("tsanbench: litmus program needle is missing")
	}
	return needle
}

// huntSummary is the part of a sweep's result that must repeat exactly.
type huntSummary struct {
	trials, failing int
	firsts          string // "signature@first trial" per distinct failure
	deep            int    // trials up to and including the first deep race; huntTrials+1 if none
}

func summarize(res *explore.Result) huntSummary {
	// A sweep that misses the deep race reads one past its budget, so that
	// fewer trials to the deep race is better without exception.
	s := huntSummary{trials: res.Trials, failing: res.Failing, deep: huntTrials + 1}
	var firsts []string
	for _, f := range res.Failures {
		firsts = append(firsts, fmt.Sprintf("%s@%d", f.Signature, f.Spec.Index))
	}
	s.firsts = strings.Join(firsts, " ")
	for i, o := range res.Outcomes {
		if o.Failed && strings.Contains(o.Signature, deepMark) {
			s.deep = i + 1
			break
		}
	}
	return s
}

// checkTrials counts a sweep's trials as attempted and every trial that
// ended in a harness error, or never ran, as failed.
func checkTrials(o *outcome, label string, res *explore.Result) {
	o.attempted += huntTrials
	if res.Trials != huntTrials {
		o.fail(huntTrials-res.Trials, "%s: ran %d of %d trials", label, res.Trials, huntTrials)
	}
	for _, out := range res.Outcomes {
		if out.Ran && out.Failed && !pureRaces(out.Signature) {
			o.fail(1, "%s trial %d: harness error %q", label, out.Spec.Index, out.Signature)
		}
	}
}

func runHunt(p *pass) *outcome {
	o := &outcome{layer: newLayer(), aliases: map[string]string{
		"throughput_per_s": "trials_per_s", "replay_s": "verify_replay_s", "demo_bytes_per_unit": "demo_bytes_per_repro",
	}}
	s := samples{}
	// refs[h] is the outcome every sweep of hunt h must repeat.
	refs := make([]*huntSummary, huntMasters)
	needle := needleProgram()
	runs := 0
	start := time.Now()
	for sweep := 0; sweep < 2*huntMasters || time.Since(start) < p.budget; sweep++ {
		// Set-up is the sweep's trial source and configuration plus one
		// trial's World and Runtime, as explore builds them for a fresh
		// trial.
		o.timeSetups(1, func(i int) time.Duration {
			t0 := time.Now()
			huntConfig(masterSeed(p.seed, i%huntMasters), "", p.tr, p.mx)
			if rt, err := core.New(probeOptions(p, i)); err == nil {
				needle.Body(rt)
			}
			return time.Since(t0)
		})
		h := sweep % huntMasters
		label := fmt.Sprintf("sweep %d (hunt %d)", sweep, h)
		res, err := explore.Run(huntConfig(masterSeed(p.seed, h), "", p.tr, p.mx))
		if err != nil {
			o.check(false, "%s: %v", label, err)
			continue
		}
		o.rate.Add(res.TrialsPerSec())
		sum := summarize(res)
		if refs[h] == nil {
			refs[h] = &sum
		}
		o.check(sum == *refs[h], "%s: outcome %+v differs from %+v", label, sum, *refs[h])
		checkTrials(o, label, res)

		var bytes float64
		replays := 0
		replayed := map[string]bool{}
		for _, f := range res.Failures {
			bytes += float64(f.Minimized.Size())
			replays += f.MinimizeReplays
			for r := 0; r < verifyReps; r++ {
				d, sig, msg := verify(f, p.tr)
				o.check(msg == "", "%s: verifying %q: %s", label, f.Signature, msg)
				o.replay.Add(d.Seconds())
				s.add("explore.verify_ms", float64(d)/float64(time.Millisecond))
				addRaces(replayed, sig)
			}
		}
		if n := len(res.Failures); n > 0 {
			o.demoBytes.Add(bytes / float64(n))
		}

		if p.traced() {
			runs += res.Trials + replays
			var busy time.Duration
			for _, out := range res.Outcomes {
				busy += out.Duration
				s.add("explore.trial_ms", float64(out.Duration)/float64(time.Millisecond))
			}
			recorded := map[string]bool{}
			for _, f := range res.Failures {
				addRaces(recorded, f.Signature)
				s.addDemo(f.Demo)
			}
			s.add("explore.busy_frac", busy.Seconds()/(res.Elapsed.Seconds()*huntWorkers))
			s.add("explore.failing", float64(res.Failing))
			s.add("explore.distinct", float64(len(res.Failures)))
			s.add("explore.mutants", float64(res.Mutants))
			s.add("explore.diverged", float64(res.DivergedTrials))
			s.add("explore.dedupe_hits", float64(res.DedupeHits))
			s.add("explore.minimize_replays", float64(replays))
			s.add("tsan.races.record", float64(len(recorded)))
			s.add("tsan.races.replay", float64(len(replayed)))
		}
	}

	// The streamed sweep runs after the timed ones, so that the file
	// system's work on its files overlaps none of them.
	dir := p.scratchFile("stream")
	if err := os.Mkdir(dir, 0o755); err != nil {
		o.check(false, "record dir: %v", err)
	} else if res, err := explore.Run(huntConfig(p.seed, dir, nil, nil)); err != nil {
		o.check(false, "streamed sweep: %v", err)
	} else {
		checkTrials(o, "streamed sweep", res)
		sum := summarize(res)
		if refs[0] == nil {
			refs[0] = &sum
		}
		o.check(sum == *refs[0], "streamed sweep: outcome %+v differs from in-memory %+v", sum, *refs[0])
		for _, f := range res.Failures {
			if fi, err := os.Stat(f.DemoPath); err == nil {
				s.add("demo.file_bytes", float64(fi.Size()))
			}
		}
	}

	for h, r := range refs {
		if r != nil {
			o.notes = append(o.notes, fmt.Sprintf("hunt %d (master %d): trials=%d failing=%d trials_to_deep_race=%d distinct=[%s]",
				h, masterSeed(p.seed, h), r.trials, r.failing, r.deep, r.firsts))
		}
	}
	if p.traced() {
		probe(p, o, s)
		s.mediansInto(o.layer)
		addCounters(o.layer, p.mx, runs+2*probeTrials)
		s.percentilesInto(o.layer, "explore.trial_ms")
		if refs[0] != nil {
			o.layer["explore.trials_to_deep_race"] = float64(refs[0].deep)
		}
	}
	return o
}

// pureRaces reports whether a failure signature consists of data races
// only, the failures a hunt exists to find. Anything else (a deadlock, a
// stall, a desync, a configuration error) is the harness failing.
func pureRaces(sig string) bool {
	for _, part := range strings.Split(sig, "|") {
		if !strings.HasPrefix(part, "race:") {
			return false
		}
	}
	return true
}

// addRaces adds the races of a failure signature to set.
func addRaces(set map[string]bool, sig string) {
	for _, part := range strings.Split(sig, "|") {
		if part != "" {
			set[part] = true
		}
	}
}

// raceSignature renders a report's races the way explore keys failures:
// location, access kinds and thread ids, without epochs.
func raceSignature(rep *core.Report) string {
	var parts []string
	for _, r := range rep.Races {
		parts = append(parts, fmt.Sprintf("race:%s:%v@t%v:%v@t%v",
			r.Location, r.First.Kind, r.First.TID, r.Second.Kind, r.Second.TID))
	}
	slices.Sort(parts)
	return strings.Join(parts, "|")
}

// verify strict-replays a failure's minimized demo. It returns how long
// that took, the replay's race signature and, if the replay did not
// reproduce the failure, why.
func verify(f *explore.Failure, tr *obs.Tracer) (time.Duration, string, string) {
	needle := needleProgram()
	t0 := time.Now()
	opts := core.ReplayOptions(f.Minimized)
	opts.RescheduleQuantum = -1
	opts.Trace = tr
	rt, err := core.New(opts)
	if err != nil {
		return time.Since(t0), "", err.Error()
	}
	rep, err := rt.Run(needle.Body(rt))
	d := time.Since(t0)
	sig := raceSignature(rep)
	switch {
	case err != nil:
		return d, sig, err.Error()
	case rep.SoftDesync:
		return d, sig, "soft desync"
	case sig != f.Signature:
		return d, sig, fmt.Sprintf("replayed %q", sig)
	}
	return d, sig, ""
}

// probeOptions configures fresh trial i the way the sweep configures its
// fresh trials: rnd and pct alternating, in-memory recording.
func probeOptions(p *pass, i int) core.Options {
	strategy := demo.StrategyRandom
	if i%2 == 1 {
		strategy = demo.StrategyPCT
	}
	s1, s2 := prng.Derive(p.seed^0x70726f6265, uint64(i))
	opts := core.RecordOptions(strategy, s1, s2)
	opts.RescheduleQuantum = -1
	opts.Trace, opts.Metrics = p.tr, p.mx
	return opts
}

// probe times core.New and Run directly on fresh needle trials configured
// as the sweep configures its fresh trials, recorded in memory and
// streamed to a file, so the core layer and the recorder's per-run
// lifecycle are measured at calls the benchmark itself makes.
func probe(p *pass, o *outcome, s samples) {
	needle := needleProgram()
	for i := 0; i < 2*probeTrials; i++ {
		opts := probeOptions(p, i/2)
		streamed := i%2 == 1
		if streamed {
			opts.RecordPath = p.scratchFile("probe-%d.demo2", i)
		}
		t0 := time.Now()
		rt, err := core.New(opts)
		newDur := time.Since(t0)
		if err != nil {
			o.check(false, "probe trial %d: core.New: %v", i, err)
			continue
		}
		t1 := time.Now()
		rep, err := rt.Run(needle.Body(rt))
		runDur := time.Since(t1)
		o.check(err == nil, "probe trial %d: %v", i, err)
		if streamed {
			s.add("demo.stream_new_us", float64(newDur)/float64(time.Microsecond))
			s.add("demo.stream_run_us", float64(runDur)/float64(time.Microsecond))
			continue
		}
		s.add("core.new_us", float64(newDur)/float64(time.Microsecond))
		addRun(s, runDur, rep)
	}
}
