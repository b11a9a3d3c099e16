package demo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ReplayMode selects how strictly a Replayer holds the execution to the
// demo's constraint streams.
type ReplayMode uint8

const (
	// ReplayStrict is the paper's contract: every recorded constraint must
	// be satisfied exactly, and any mismatch is a hard desynchronisation
	// (*DesyncError). The zero value, so existing call sites keep strict
	// semantics.
	ReplayStrict ReplayMode = iota
	// ReplayTolerantRecord enforces each recorded decision only while it
	// is feasible (the demanded thread runnable, the demanded syscall
	// issued). The first infeasible constraint marks the replay diverged:
	// the remaining streams are abandoned and the live strategy takes
	// over, surfacing a Diverged outcome instead of a DesyncError. The
	// caller runs a Recorder alongside the Replayer from tick 1, so the
	// resulting demo captures the replayed prefix and the live suffix as
	// one strict-replayable recording.
	ReplayTolerantRecord
)

func (m ReplayMode) String() string {
	switch m {
	case ReplayStrict:
		return "strict"
	case ReplayTolerantRecord:
		return "tolerant-record"
	default:
		return fmt.Sprintf("ReplayMode(%d)", uint8(m))
	}
}

// Diverged marks the point where a tolerant replay left the demo's
// constraints and fell back to the live strategy.
type Diverged struct {
	// Tick is the first tick the demo no longer dictated.
	Tick uint64
	// Reason names the infeasible constraint.
	Reason string
}

func (d *Diverged) String() string {
	return fmt.Sprintf("diverged at tick %d: %s", d.Tick, d.Reason)
}

// Replayer exposes a Demo's constraint streams as consumable cursors for
// the scheduler and syscall layer. All methods are safe for concurrent use.
type Replayer struct {
	mu   sync.Mutex
	d    *Demo
	mode ReplayMode

	// div records the first divergence of a tolerant replay; divFlag
	// mirrors it atomically so the per-tick stream accessors can cut off
	// without the mutex.
	div     *Diverged
	divFlag atomic.Bool

	// schedule[t] is the thread that must run critical section t
	// (1-based), reconstructed from the queue stream. Nil for the random
	// strategy, whose schedule is re-derived from the seeds.
	schedule []int32

	signalAt   map[sigKey][]int32
	asyncAt    map[uint64][]AsyncEvent
	sysCursor  int
	outputHash uint64
	// hashInited mirrors the Recorder's explicit hash-state tracking: a
	// mid-stream FNV state of 0 must not be mistaken for "no output yet".
	hashInited bool

	// sigsLeft and asyncsLeft count the unconsumed entries of the SIGNAL
	// and ASYNC streams. SignalsAt/AsyncsAt run on every Tick of a replay,
	// and for any workload without signals the streams are empty (or drain
	// early): the counters let those calls return without the mutex or the
	// map lookups.
	sigsLeft   atomic.Int64
	asyncsLeft atomic.Int64
}

type sigKey struct {
	tid  int32
	tick uint64
}

// NewReplayer builds a Replayer for d running under the given mode. It
// validates the queue stream's internal consistency up front.
func NewReplayer(d *Demo, mode ReplayMode) (*Replayer, error) {
	if mode > ReplayTolerantRecord {
		return nil, fmt.Errorf("demo: unknown replay mode %d", uint8(mode))
	}
	r := &Replayer{d: d, mode: mode,
		signalAt: make(map[sigKey][]int32),
		asyncAt:  make(map[uint64][]AsyncEvent),
	}
	for _, s := range d.Signals {
		k := sigKey{s.TID, s.Tick}
		r.signalAt[k] = append(r.signalAt[k], s.Sig)
	}
	for _, a := range d.Asyncs {
		r.asyncAt[a.Tick] = append(r.asyncAt[a.Tick], a)
	}
	r.sigsLeft.Store(int64(len(d.Signals)))
	r.asyncsLeft.Store(int64(len(d.Asyncs)))
	if d.Strategy == StrategyQueue {
		schedule, err := d.queueSchedule()
		if err != nil {
			return nil, err
		}
		r.schedule = schedule
	}
	return r, nil
}

// queueSchedule reconstructs the queue strategy's per-tick schedule from
// the QUEUE stream's first-tick map and delta chains: schedule[t] is the
// thread that must run critical section t (1-based). Shared by the
// Replayer and by tick-window slicing (Window / demoinspect -window).
func (d *Demo) queueSchedule() ([]int32, error) {
	// Every tick 1..FinalTick must be covered by the schedule chains,
	// and each chain step consumes either a FirstTick entry or a delta
	// slot, so a FinalTick beyond their sum cannot be satisfied. Checking
	// up front also keeps a corrupt FinalTick (e.g. ^uint64(0), whose +1
	// wraps to zero below) from panicking or allocating wildly.
	if d.FinalTick > uint64(len(d.Queue.Ticks))+uint64(len(d.Queue.FirstTick)) {
		return nil, fmt.Errorf("%w: final tick %d exceeds the recorded schedule data (%d delta entries, %d threads)",
			ErrCorrupt, d.FinalTick, len(d.Queue.Ticks), len(d.Queue.FirstTick))
	}
	schedule := make([]int32, d.FinalTick+1)
	for i := range schedule {
		schedule[i] = -1
	}
	for tid, first := range d.Queue.FirstTick {
		t := first
		for t != 0 && t <= d.FinalTick {
			if schedule[t] != -1 {
				return nil, fmt.Errorf("%w: tick %d scheduled twice", ErrCorrupt, t)
			}
			schedule[t] = tid
			if t-1 >= uint64(len(d.Queue.Ticks)) {
				break
			}
			delta := d.Queue.Ticks[t-1]
			if delta == 0 {
				break
			}
			t += delta
		}
	}
	for t := uint64(1); t <= d.FinalTick; t++ {
		if schedule[t] == -1 {
			return nil, fmt.Errorf("%w: tick %d has no scheduled thread", ErrCorrupt, t)
		}
	}
	return schedule, nil
}

// Demo returns the underlying demo.
func (r *Replayer) Demo() *Demo { return r.d }

// Mode returns the replay mode the Replayer was built with.
func (r *Replayer) Mode() ReplayMode { return r.mode }

// Tolerant reports whether the replayer runs under either tolerant mode.
func (r *Replayer) Tolerant() bool { return r.mode != ReplayStrict }

// DivergedNow reports whether a tolerant replay has already left the
// demo's constraints. Lock-free: it runs on every tick and syscall.
func (r *Replayer) DivergedNow() bool { return r.divFlag.Load() }

// NoteDiverged marks the replay diverged at tick for the given reason.
// Only the first divergence is kept; later calls are no-ops. From this
// point every stream accessor returns "nothing recorded", so the live
// strategy owns the rest of the execution. Panics on a strict replayer —
// strict replays hard-desync instead of diverging.
func (r *Replayer) NoteDiverged(tick uint64, reason string) {
	if r.mode == ReplayStrict {
		panic("demo: NoteDiverged on a strict replayer")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.div != nil {
		return
	}
	r.div = &Diverged{Tick: tick, Reason: reason}
	r.divFlag.Store(true)
}

// Divergence returns the first divergence of a tolerant replay, nil while
// (or if) the replay is still synchronised.
func (r *Replayer) Divergence() *Diverged {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.div
}

// ScheduledAt returns the thread required to run critical section t under
// the queue strategy, or -1 past the end of the recording (or, in a
// tolerant replay, after divergence — the schedule no longer binds).
func (r *Replayer) ScheduledAt(t uint64) int32 {
	if r.schedule == nil || t >= uint64(len(r.schedule)) || r.divFlag.Load() {
		return -1
	}
	return r.schedule[t]
}

// SignalsAt consumes and returns the signals recorded for thread tid whose
// preceding Tick had value tick.
func (r *Replayer) SignalsAt(tid int32, tick uint64) []int32 {
	if r.sigsLeft.Load() == 0 || r.divFlag.Load() {
		// Empty or drained stream (or a diverged tolerant replay, whose
		// remaining constraints are abandoned): skip the lock.
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := sigKey{tid, tick}
	sigs := r.signalAt[k]
	if len(sigs) > 0 {
		delete(r.signalAt, k)
		r.sigsLeft.Add(-int64(len(sigs)))
	}
	return sigs
}

// AsyncsAt consumes and returns the async events floated to tick.
func (r *Replayer) AsyncsAt(tick uint64) []AsyncEvent {
	if r.asyncsLeft.Load() == 0 || r.divFlag.Load() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := r.asyncAt[tick]
	if len(evs) > 0 {
		delete(r.asyncAt, tick)
		r.asyncsLeft.Add(-int64(len(evs)))
	}
	return evs
}

// NextSyscall consumes the next SYSCALL record. The record's issuing thread
// and kind must match the replaying call; a mismatch, or an exhausted
// stream, is a hard desynchronisation under strict replay. Under a
// tolerant mode it instead marks the replay diverged and returns
// replayed=false, telling the caller to execute the call live (as it does
// for every call after divergence).
func (r *Replayer) NextSyscall(tid int32, kind uint16, tick uint64) (rec SyscallRecord, replayed bool, err error) {
	if r.divFlag.Load() {
		return SyscallRecord{}, false, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sysCursor >= len(r.d.Syscalls) {
		if r.mode != ReplayStrict {
			r.noteDivergedLocked(tick, fmt.Sprintf(
				"thread %d issued syscall %d past the end of the recorded SYSCALL stream", tid, kind))
			return SyscallRecord{}, false, nil
		}
		return SyscallRecord{}, false, &DesyncError{
			Stream: "SYSCALL", Tick: tick, TID: tid, Offset: uint64(r.sysCursor),
			Reason:   fmt.Sprintf("thread %d issued syscall %d but the stream is exhausted", tid, kind),
			Expected: "end of execution (no further syscalls)",
			Observed: fmt.Sprintf("thread %d issued syscall %d", tid, kind),
		}
	}
	rec = r.d.Syscalls[r.sysCursor]
	if rec.TID != tid || rec.Kind != kind {
		if r.mode != ReplayStrict {
			r.noteDivergedLocked(tick, fmt.Sprintf(
				"thread %d issued syscall %d but the recording has thread %d syscall %d",
				tid, kind, rec.TID, rec.Kind))
			return SyscallRecord{}, false, nil
		}
		return SyscallRecord{}, false, &DesyncError{
			Stream: "SYSCALL", Tick: tick, TID: tid, Offset: uint64(r.sysCursor),
			Reason: fmt.Sprintf("thread %d issued syscall %d but the recording has thread %d syscall %d",
				tid, kind, rec.TID, rec.Kind),
			Expected: fmt.Sprintf("thread %d syscall %d", rec.TID, rec.Kind),
			Observed: fmt.Sprintf("thread %d syscall %d", tid, kind),
		}
	}
	r.sysCursor++
	return rec, true, nil
}

// noteDivergedLocked is NoteDiverged with r.mu already held.
func (r *Replayer) noteDivergedLocked(tick uint64, reason string) {
	if r.div != nil {
		return
	}
	r.div = &Diverged{Tick: tick, Reason: reason}
	r.divFlag.Store(true)
}

// SyscallCursor returns how many SYSCALL records the replay has consumed
// and how many the demo holds, the cursor position desync forensics
// reports.
func (r *Replayer) SyscallCursor() (consumed, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sysCursor, len(r.d.Syscalls)
}

// MixOutput folds replayed observable output into the replay-side hash for
// soft-desync comparison.
func (r *Replayer) MixOutput(p []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.hashInited {
		r.outputHash = fnvOffsetBasis
		r.hashInited = true
	}
	r.outputHash = mixHash(r.outputHash, p)
}

// LeftoverError returns a hard-desync error if, at the end of the replay,
// recorded constraints were never consumed (signals that were never raised
// or syscalls that were never re-issued), nil otherwise. finalTick is the
// replay's final tick counter.
func (r *Replayer) LeftoverError(finalTick uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.signalAt) > 0 {
		for k := range r.signalAt {
			return &DesyncError{
				Stream: "SIGNAL", Tick: finalTick, TID: k.tid, Offset: k.tick,
				Reason:   fmt.Sprintf("recorded signal for thread %d at tick %d was never delivered", k.tid, k.tick),
				Expected: fmt.Sprintf("signal delivery to thread %d after its tick %d", k.tid, k.tick),
				Observed: "the replay finished without re-raising it",
			}
		}
	}
	if r.sysCursor < len(r.d.Syscalls) {
		rec := r.d.Syscalls[r.sysCursor]
		return &DesyncError{
			Stream: "SYSCALL", Tick: finalTick, TID: rec.TID, Offset: uint64(r.sysCursor),
			Reason: fmt.Sprintf("%d recorded syscalls were never re-issued (next: thread %d syscall %d)",
				len(r.d.Syscalls)-r.sysCursor, rec.TID, rec.Kind),
			Expected: fmt.Sprintf("thread %d to re-issue syscall %d", rec.TID, rec.Kind),
			Observed: "the replay finished without it",
		}
	}
	return nil
}

// Cursors is the Replayer's stream-offset bookmark: how far replay has
// consumed each demo stream. It is a pure value, captured into replay
// checkpoints and compared to verify bit-identical convergence after a
// restart. (The QUEUE stream needs no cursor — its position is the tick
// counter itself.)
type Cursors struct {
	// SyscallsConsumed counts consumed SYSCALL records.
	SyscallsConsumed int
	// SignalsLeft and AsyncsLeft count the not-yet-delivered entries of
	// the SIGNAL and ASYNC streams (those streams are consumed keyed by
	// tick, not sequentially, so "remaining" is the natural cursor).
	SignalsLeft int
	AsyncsLeft  int
}

// Cursors returns the replay's current stream-offset bookmark.
func (r *Replayer) Cursors() Cursors {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Cursors{
		SyscallsConsumed: r.sysCursor,
		SignalsLeft:      int(r.sigsLeft.Load()),
		AsyncsLeft:       int(r.asyncsLeft.Load()),
	}
}

// SoftDesynced reports whether the replay's observable output differed from
// the recording's (soft desynchronisation, §4). Only meaningful after the
// replay has finished.
func (r *Replayer) SoftDesynced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.outputHash != r.d.OutputHash
}

// Outcome is the coherent end-of-replay summary, folding what used to be
// separate LeftoverError and SoftDesynced checks into one mode-aware
// verdict.
type Outcome struct {
	// Mode is the replay mode the verdict was computed under.
	Mode ReplayMode
	// Err is the hard desynchronisation from constraints left unconsumed
	// at the end of the run. Strict mode only; tolerant modes fold
	// leftovers into Diverged.
	Err error
	// Diverged is the first point a tolerant replay left the demo's
	// constraints (an infeasible decision mid-run, leftover constraints at
	// the end, or — with neither — observable output that drifted from the
	// recording). Nil when the replay stayed synchronised, and always nil
	// in strict mode.
	Diverged *Diverged
	// SoftDesync reports the raw output-hash comparison. In tolerant modes
	// a diverged execution is expected to produce different output, so
	// callers treat SoftDesync as a failure only when Diverged is nil.
	SoftDesync bool
}

// Outcome computes the replay's end-of-run verdict. finalTick is the
// scheduler's tick counter at termination. Call it once, after the run
// has finished.
func (r *Replayer) Outcome(finalTick uint64) Outcome {
	oc := Outcome{Mode: r.mode, SoftDesync: r.SoftDesynced()}
	if r.mode == ReplayStrict {
		oc.Err = r.LeftoverError(finalTick)
		return oc
	}
	oc.Diverged = r.Divergence()
	if oc.Diverged == nil {
		if lerr := r.LeftoverError(finalTick); lerr != nil {
			var de *DesyncError
			reason := lerr.Error()
			if errors.As(lerr, &de) {
				reason = de.Reason
			}
			oc.Diverged = &Diverged{Tick: finalTick, Reason: reason}
		} else if oc.SoftDesync {
			oc.Diverged = &Diverged{Tick: finalTick,
				Reason: "observable output diverged from the recording"}
		}
	}
	return oc
}
