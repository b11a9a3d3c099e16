package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/obs"
	"repro/internal/tsan"
)

// Options configures a Runtime. Most call sites want one of the preset
// constructors — RecordOptions, ReplayOptions, UncontrolledOptions — and
// then adjust individual fields; hand-built Options are validated by
// core.New via Validate, which rejects the combinations that used to fail
// silently (Record together with Replay, seeds alongside a demo that
// overrides them, reporting races with detection disabled).
type Options struct {
	// Strategy selects the scheduling strategy (random, queue, or the PCT
	// extension).
	Strategy demo.Strategy
	// Seed1, Seed2 seed the scheduler PRNG, standing in for the paper's
	// two rdtsc() calls. A replay takes its seeds from the demo header
	// instead; setting them alongside Replay is a validation error.
	Seed1, Seed2 uint64
	// Record enables demo recording. Mutually exclusive with Replay.
	Record bool
	// RecordPath, when set (requires Record), streams the recording to an
	// append-only v2 container at this path as the run executes, instead of
	// encoding it into memory when the run ends. The recording of a run
	// that crashes or is killed survives as a replayable prefix, recovered
	// with demo.Recover. The finished demo is read back into Report.Demo;
	// Report.DemoPath carries the path.
	RecordPath string
	// RecordFlushInterval is the streaming writer's background flush period
	// (0 = 25ms default). Only meaningful with RecordPath; tests shrink it
	// to make crash windows tight.
	RecordFlushInterval time.Duration
	// Replay, if non-nil, replays the given demo. The demo dictates the
	// strategy's decisions and the PRNG seeds.
	Replay *demo.Demo
	// ReplayMode selects how strictly the replay is held to the demo
	// (requires Replay). The zero value is demo.ReplayStrict — the paper's
	// contract, any mismatch a hard desync. demo.ReplayTolerant enforces
	// each recorded decision only while feasible and falls back to the live
	// strategy at the first infeasible one, reporting Report.Diverged
	// instead of an error. demo.ReplayTolerantRecord additionally
	// re-records the whole execution (replayed prefix + live suffix) into
	// Report.Demo as a new strict-replayable demo; Record must be left
	// false — the recorder is implicit.
	ReplayMode demo.ReplayMode
	// DisableRaces turns the race detector's happens-before analysis off
	// entirely (the "native-ish" configurations). Detection is on by
	// default because integrating it is the point of the tool.
	DisableRaces bool
	// ReportRaces controls whether detected races are materialised as
	// reports; the paper's "no reports" columns run detection with
	// reporting suppressed. Incompatible with DisableRaces.
	ReportRaces bool
	// SequentialConsistency disables weak-memory store histories,
	// modelling plain tsan semantics (ablation).
	SequentialConsistency bool
	// HistoryDepth bounds atomic store histories (default 8).
	HistoryDepth int
	// World is the virtual environment; nil creates a fresh one.
	World *env.World
	// Policy is the sparse syscall-recording policy (§4.4). Defaults to
	// PolicySparse.
	Policy Policy
	// RescheduleQuantum is the liveness quantum n of §3.3: the background
	// rescheduler forces a scheduling decision when the current thread
	// spends longer than this outside a critical section. 0 means the
	// 2ms default; negative disables.
	RescheduleQuantum time.Duration
	// MaxTicks aborts runaway executions (0 = 50M safety default).
	MaxTicks uint64
	// MaxThreads, if nonzero, bounds how many threads the program under test
	// may create; exceeding it stops the run. It is a pure bound with no
	// per-thread cost up front — park gates and detector state appear only
	// as threads actually run — so load scenarios set it to 10240+ for free.
	MaxThreads int
	// WallTimeout aborts the run after this much real time (0 = 30s).
	WallTimeout time.Duration
	// PCTDepth / PCTLength parameterise the PCT and delay strategies.
	PCTDepth  int
	PCTLength uint64
	// Sequentialize serialises invisible regions too: only one thread
	// executes at any time, context-switching at visible operations. This
	// models rr's single-core execution (used by the rr-model baseline
	// and the ablation benchmarks).
	Sequentialize bool
	// PerEventOverhead adds a busy-wait to every instrumented syscall,
	// modelling rr's per-event ptrace trap-stop-resume cost (real rr traps
	// at syscalls, not at every synchronisation operation).
	PerEventOverhead time.Duration
	// StartupOverhead adds a one-time busy-wait at Run start, modelling
	// rr's constant tracer-setup cost ("the rr results show huge increases
	// due to a constant overhead applied to all programs", §5.1).
	StartupOverhead time.Duration
	// DeterministicAlloc makes Arena addresses deterministic, the
	// mitigation §5.5 suggests for memory-layout-sensitive programs.
	DeterministicAlloc bool
	// Uncontrolled disables controlled scheduling entirely: the program
	// runs on the raw Go scheduler with (optionally) race detection, the
	// paper's plain-tsan11 baseline. With DisableRaces it is the "native"
	// baseline. Incompatible with Record/Replay.
	Uncontrolled bool
	// SpawnDelay models pthread_create cost: the parent busy-waits this
	// long after launching a child, giving the child the head start a
	// pthread would have over later siblings. Go launches goroutines
	// last-in-first-out, the opposite arrival order, so without this the
	// queue strategy and the uncontrolled baseline explore schedules the
	// paper's substrate never would. 0 = 100µs default; negative disables.
	// Ignored during replay (the demo dictates the schedule).
	SpawnDelay time.Duration
	// Trace, if non-nil, receives a structured event per visible
	// operation, scheduling decision and record/replay stream event. The
	// tracer is always compiled in; present-but-disabled it costs a few
	// nanoseconds per visible operation (an atomic enabled check).
	Trace *obs.Tracer
	// Metrics, if non-nil, receives runtime counters and histograms:
	// visible operations by kind, scheduler decisions by strategy, demo
	// bytes by stream, desync counts and run durations.
	Metrics *obs.Metrics
	// Debug, if non-nil, attaches a debugger rendezvous to the run:
	// criticalOp evaluates its pause predicates and checkpoint schedule at
	// every visible-op classification point. Debugging requires Replay —
	// pausing and restarting only make sense over a deterministic demo.
	Debug *DebugControl
	// WriteIndex, if non-nil, records every Var write site (name, thread,
	// thread's last tick) — the reverse-continue target map the debugger
	// queries. Usable in any controlled mode.
	WriteIndex *tsan.WriteIndex
	// Sharing is the static sparsity report produced by
	// `tsanvet -sharing out.json`. Vars whose every creation site the
	// threadlocal analyzer proved single-thread-reachable skip the
	// detector's shadow path entirely, guarded by a per-instance dynamic
	// claim check: a second thread touching a claimed-local Var is a hard
	// error (tsan.SparsityViolation) rather than a silently dropped race.
	// Nil disables the fast path.
	Sharing *tsan.SharingReport
}

// RecordOptions returns the standard find-and-record configuration: the
// given controlled strategy seeded with (seed1, seed2), demo recording on,
// and race reporting on — the options every hunting loop builds.
func RecordOptions(strategy demo.Strategy, seed1, seed2 uint64) Options {
	return Options{
		Strategy:    strategy,
		Seed1:       seed1,
		Seed2:       seed2,
		Record:      true,
		ReportRaces: true,
	}
}

// ReplayOptions returns the standard replay configuration for a recorded
// demo: the strategy comes from the demo header (replay must use the
// strategy the demo was recorded under) and the seeds are left zero
// because the demo header provides them. Race reporting is on, so a
// replayed race surfaces again. d must be non-nil.
func ReplayOptions(d *demo.Demo) Options {
	return Options{
		Strategy:    d.Strategy,
		Replay:      d,
		ReportRaces: true,
	}
}

// TolerantReplayOptions returns the schedule-fuzzing replay configuration:
// ReplayOptions with divergence tolerance and re-recording on, so running
// a mutated (possibly infeasible) demo yields a Report whose Demo is a new
// strict-replayable recording of whatever actually executed, and whose
// Diverged field marks where (if anywhere) the candidate schedule stopped
// being achievable.
func TolerantReplayOptions(d *demo.Demo) Options {
	o := ReplayOptions(d)
	o.ReplayMode = demo.ReplayTolerantRecord
	return o
}

// UncontrolledOptions returns the paper's uncontrolled baselines: the
// program runs on the raw Go scheduler with race detection on (the plain
// tsan11 configuration), or with disableRaces also uninstrumented — the
// "native" baseline. Uncontrolled mode cannot record or replay.
func UncontrolledOptions(disableRaces bool) Options {
	return Options{
		Uncontrolled: true,
		DisableRaces: disableRaces,
		ReportRaces:  !disableRaces,
	}
}

// Validate reports whether the option combination is runnable, returning
// an error naming the first incompatibility. core.New calls it, so every
// footgun below fails loudly at construction instead of silently changing
// the execution:
//
//   - Uncontrolled mode with Record or Replay (no critical sections means
//     nothing to constrain);
//   - Record together with Replay (Replay used to silently win);
//   - Replay with a demo recorded under a different strategy;
//   - Replay with explicit seeds (the demo header used to silently
//     override them);
//   - Debug without Replay (the debugger pauses and restarts replays);
//   - ReportRaces with DisableRaces (reports require detection);
//   - a Strategy or HistoryDepth out of range, or PCT parameters on a
//     strategy that ignores them.
func (o Options) Validate() error {
	if o.Strategy > demo.StrategyDelay {
		return fmt.Errorf("core: unknown strategy %v", o.Strategy)
	}
	if o.Uncontrolled && (o.Record || o.Replay != nil) {
		return errors.New("core: uncontrolled mode cannot record or replay")
	}
	if o.Record && o.Replay != nil {
		return errors.New("core: Record and Replay are mutually exclusive; use core.RecordOptions or core.ReplayOptions")
	}
	if o.RecordPath != "" && !o.Record {
		return errors.New("core: RecordPath requires Record")
	}
	if o.RecordFlushInterval != 0 && o.RecordPath == "" {
		return errors.New("core: RecordFlushInterval only applies to streaming recording (set RecordPath)")
	}
	if o.Replay != nil {
		if o.Replay.Strategy != o.Strategy {
			return fmt.Errorf("core: demo was recorded with strategy %v, not %v (core.ReplayOptions sets the strategy from the demo)",
				o.Replay.Strategy, o.Strategy)
		}
		if o.Seed1 != 0 || o.Seed2 != 0 {
			return errors.New("core: Seed1/Seed2 must be zero during replay: the demo header provides the seeds (use core.ReplayOptions)")
		}
	}
	if o.ReplayMode != demo.ReplayStrict {
		if o.Replay == nil {
			return fmt.Errorf("core: ReplayMode %s requires Replay", o.ReplayMode)
		}
		if o.Record {
			return errors.New("core: Record must be left false under tolerant replay modes; ReplayTolerantRecord records implicitly")
		}
	}
	if o.Debug != nil && o.Replay == nil {
		return errors.New("core: Debug requires Replay: the debugger pauses and restarts deterministic replays")
	}
	if o.Debug != nil && o.ReplayMode != demo.ReplayStrict {
		return errors.New("core: Debug requires strict replay: checkpoints assume bit-identical re-execution")
	}
	if o.DisableRaces && o.ReportRaces {
		return errors.New("core: ReportRaces requires race detection, which DisableRaces turns off")
	}
	if o.HistoryDepth < 0 {
		return fmt.Errorf("core: negative HistoryDepth %d", o.HistoryDepth)
	}
	if o.MaxThreads < 0 {
		return fmt.Errorf("core: negative MaxThreads %d", o.MaxThreads)
	}
	if (o.PCTDepth != 0 || o.PCTLength != 0) && !o.Uncontrolled &&
		o.Strategy != demo.StrategyPCT && o.Strategy != demo.StrategyDelay {
		return fmt.Errorf("core: PCTDepth/PCTLength only apply to the pct and delay strategies, not %v", o.Strategy)
	}
	return nil
}
