// Demo minimization: shrink a failing recording while preserving the
// failure, in the spirit of rr's "a recording is only useful once it is
// small enough to share". The search space is the demo's constraint
// streams, and validity is decided the only way that is sound for a
// record/replay system: replay the candidate under full synchronisation
// and require the same failure signature with no soft desync.
//
// Two passes, both budget-bounded:
//
//  1. Tick-prefix truncation, binary-searched. Replay past the end of a
//     recording falls through to the live strategy, and for the
//     seed-determined strategies (random, PCT, delay) the live
//     continuation is exactly the recorded one — so the constrained
//     prefix can usually shrink to the failure point while the replay
//     still reproduces bit-for-bit. Queue demos are not truncated: past
//     the cut the queue strategy follows physical arrival, so a replay
//     that reproduces once may not the next time, and a single
//     validating replay cannot tell the two apart.
//  2. Per-stream event dropping: greedily remove ASYNC and SIGNAL events
//     (highest index first) and keep each removal that still reproduces.
//     Syscall records are never dropped — replay consumes them
//     positionally, so removal means hard desync, which the validation
//     would reject anyway; we don't spend budget learning that.
package explore

import (
	"repro/internal/core"
	"repro/internal/demo"
)

// minimizeFailure shrinks f.Demo into f.Minimized, spending at most
// cfg.MinimizeBudget replays. If the original demo does not reproduce
// f.Signature (a timing-dependent failure the recording failed to pin
// down), it is kept unminimized and f.Reproduced stays false.
func minimizeFailure(cfg *Config, f *Failure) {
	replays := 0
	reproduces := func(d *demo.Demo) bool {
		replays++
		return replaySignature(cfg, d) == f.Signature
	}

	f.Minimized = f.Demo
	if !reproduces(f.Demo) {
		f.MinimizeReplays = replays
		return
	}
	f.Reproduced = true
	best := f.Demo

	// Pass 1: binary-search the smallest reproducing tick prefix. On
	// success the candidate becomes the new best, so later truncations
	// start from an already-shrunk demo. Queue demos skip it (see above).
	lo, hi := uint64(1), best.FinalTick
	if best.Strategy == demo.StrategyQueue {
		hi = lo
	}
	for lo < hi && replays < cfg.MinimizeBudget {
		mid := lo + (hi-lo)/2
		cand := best.TruncateTo(mid)
		if cand.Validate() == nil && reproduces(cand) {
			hi = mid
			best = cand
			continue
		}
		lo = mid + 1
	}

	// Pass 2: drop individual floated events, highest index first so the
	// slice splices do not disturb unvisited indexes.
	for i := len(best.Asyncs) - 1; i >= 0 && replays < cfg.MinimizeBudget; i-- {
		cand := best.Clone()
		cand.Asyncs = append(cand.Asyncs[:i], cand.Asyncs[i+1:]...)
		if cand.Validate() == nil && reproduces(cand) {
			best = cand
		}
	}
	for i := len(best.Signals) - 1; i >= 0 && replays < cfg.MinimizeBudget; i-- {
		cand := best.Clone()
		cand.Signals = append(cand.Signals[:i], cand.Signals[i+1:]...)
		if cand.Validate() == nil && reproduces(cand) {
			best = cand
		}
	}

	f.Minimized = best
	f.MinimizeReplays = replays
	cfg.Metrics.Add("explore.minimize.replays", uint64(replays))
	if orig := f.Demo.Size(); orig > 0 {
		shrink := 100 * (1 - float64(best.Size())/float64(orig))
		cfg.Metrics.Observe("explore.minimize.shrink_pct", shrink)
	}
}

// replaySignature replays d under the sweep's trial knobs and returns the
// resulting failure signature. A candidate that hard-desyncs comes back
// as "desync:<stream>", which never equals a recorded signature (record
// mode cannot desync), so broken candidates are rejected by the ordinary
// signature comparison.
func replaySignature(cfg *Config, d *demo.Demo) string {
	rt, err := core.New(trialOptions(cfg, core.ReplayOptions(d)))
	if err != nil {
		return "config:" + err.Error()
	}
	rep, _ := rt.Run(cfg.Program.Body(rt))
	return signatureOf(rep)
}
