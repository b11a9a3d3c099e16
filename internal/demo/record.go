package demo

import (
	"os"
	"sync"
)

// Recorder accumulates the constraint streams of an execution being
// recorded. It is safe for concurrent use: the scheduler appends schedule,
// signal and async events while the syscall layer appends syscall records.
//
// For the queue strategy the interleaving is stored exactly as §4.2
// describes: a first-tick map plus a per-critical-section "next tick"
// stream. We store the stream as deltas (next tick − current tick, 0 for
// "never scheduled again") so that a thread scheduled many times in
// succession yields a run of 1s, which the RLE coder collapses.
//
// Every Recorder writes the v2 container (stream.go) into a sink: a byte
// buffer for in-memory recording (NewRecorder), or an append-only file
// drained by a background flusher (NewFileRecorder). The in-memory
// slices hold only the window not yet flushed, so a file recording runs
// in bounded memory and survives a crash. Close writes the final batch
// and returns the strict decode of everything written.
type Recorder struct {
	mu       sync.Mutex
	strategy Strategy
	seed1    uint64
	seed2    uint64

	// Queue-stream accumulation state, all indexed densely: TIDs are
	// assigned densely from 0 and NoteSchedule runs once per tick, so the
	// hot path is two slice stores and an amortised append — no map
	// lookups, no per-tick reallocation. A zero in lastTick means "never
	// scheduled" (ticks are 1-based); a thread's first tick goes straight
	// to the firsts spool.
	//
	// queueDelta is a window: index i holds the delta for absolute slot
	// deltaBase+i, and flushed slots are shifted out.
	queueDelta []uint64 // slot - deltaBase -> delta to the thread's next tick
	lastTick   []uint64 // tid -> most recent tick

	signals  []SignalEvent
	asyncs   []AsyncEvent
	syscalls []SyscallRecord

	outputHash uint64
	// hashInited tracks whether outputHash holds live FNV state. The
	// previous code used outputHash == 0 as the "uninitialized" sentinel,
	// so FNV state that legitimately landed on 0 mid-stream was re-seeded
	// with the offset basis on the next MixOutput and the hash stopped
	// being a pure function of the output bytes. An empty output stream
	// still hashes to 0 on disk, preserving every existing demo.
	hashInited bool

	// Latch: the newest point at which the container may be cut and
	// still be a consistent prefix. Updated under mu at every tick.
	footTick uint64
	footHash uint64
	sigN     int // absolute SIGNAL count at the latch
	asyncN   int
	sysN     int

	// Absolute base offsets of the in-memory windows: entries below the
	// base are already in the sink.
	deltaBase uint64
	sigBase   int
	asyncBase int
	sysBase   int

	// Spools feeding the next queue chunk.
	firsts  []firstEntry
	patches []patchEntry

	// werr is the first write error; once set the flusher has given up
	// and Close reports it.
	werr error

	// The sink: file, or mem when recording in memory. Set once before
	// the Recorder is shared, so nil checks outside the mutex are safe.
	file *os.File
	mem  []byte

	// Flusher-owned double buffers, guarded by flushMu (held by the
	// background flusher, Flush callers, or Close).
	flushMu        sync.Mutex
	enc            []byte
	pay            []byte
	scratchDeltas  []uint64
	scratchFirsts  []firstEntry
	scratchPatches []patchEntry
	scratchSigs    []SignalEvent
	scratchAsyncs  []AsyncEvent
	scratchSys     []SyscallRecord
	lastFooterTick uint64

	// quit and done stop a file sink's background flusher; a memory sink
	// has none and flushes only at Close.
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeDemo *Demo
	closeErr  error
}

// NewRecorder returns a Recorder that keeps its container in memory; Close
// returns the recorded Demo.
func NewRecorder(s Strategy, seed1, seed2 uint64) *Recorder {
	return &Recorder{
		strategy: s,
		seed1:    seed1,
		seed2:    seed2,
		mem:      appendHeader(make([]byte, 0, v2HeaderLen), s, seed1, seed2),
	}
}

// NoteSchedule records that thread tid executed the critical section with
// (1-based) tick number tick. Only meaningful for the queue strategy; the
// random strategy's schedule is implied by the seeds, so callers skip this
// and call NoteTick instead.
func (r *Recorder) NoteSchedule(tid int32, tick uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.deltaBase
	need := tick - base // window length covering slot tick-1
	if uint64(cap(r.queueDelta)) < need {
		grown := make([]uint64, need, growCap(cap(r.queueDelta), need))
		copy(grown, r.queueDelta)
		r.queueDelta = grown
	} else if uint64(len(r.queueDelta)) < need {
		// Zero the extension explicitly: the window's array was the
		// previous flush batch (see cut), so its tail holds stale deltas.
		old := len(r.queueDelta)
		r.queueDelta = r.queueDelta[:need]
		for i := old; i < int(need); i++ {
			r.queueDelta[i] = 0
		}
	}
	for int(tid) >= len(r.lastTick) {
		r.lastTick = append(r.lastTick, 0)
	}
	if last := r.lastTick[tid]; last != 0 {
		if slot := last - 1; slot >= base {
			r.queueDelta[slot-base] = tick - last
		} else {
			// The thread's previous slot was already flushed: emit a
			// backfill patch in the next chunk. A reader that never sees
			// the patch (the file was cut before it) keeps the slot's 0,
			// which correctly means "never scheduled again within that
			// shorter prefix".
			r.patches = append(r.patches, patchEntry{slot: slot, delta: tick - last})
		}
	} else {
		r.firsts = append(r.firsts, firstEntry{tid: tid, tick: tick})
	}
	r.lastTick[tid] = tick
	r.latchLocked(tick)
}

// NoteTick latches tick as the latest completed critical section for the
// flusher's footer candidates. Strategies whose schedule is implied by the
// seeds (everything except queue, whose NoteSchedule already latches) call
// this once per tick. It is a lock-free no-op for a memory sink: nothing
// is cut before Close, which cuts at "now".
func (r *Recorder) NoteTick(tick uint64) {
	if r.file == nil {
		return
	}
	r.mu.Lock()
	r.latchLocked(tick)
	r.mu.Unlock()
}

// latchLocked records the newest consistent cut point. Caller holds r.mu.
func (r *Recorder) latchLocked(tick uint64) {
	r.footTick = tick
	r.footHash = r.outputHash
	r.sigN = r.sigBase + len(r.signals)
	r.asyncN = r.asyncBase + len(r.asyncs)
	r.sysN = r.sysBase + len(r.syscalls)
}

// growCap doubles the capacity until it covers need (minimum 1024 slots,
// 8 KiB — one page of deltas — so short recordings do not resize at all).
// Doubling that would overflow clamps to need exactly instead of wrapping
// to zero and spinning forever.
func growCap(cur int, need uint64) int {
	c := uint64(cur)
	if c < 1024 {
		c = 1024
	}
	for c < need {
		next := c * 2
		if next < c {
			c = need
			break
		}
		c = next
	}
	return int(c)
}

// AddSignal appends a SIGNAL stream entry and returns its stream index
// (the offset trace events carry). Indices are global across flushes:
// entries already in the sink still count.
func (r *Recorder) AddSignal(ev SignalEvent) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.signals = append(r.signals, ev)
	return r.sigBase + len(r.signals) - 1
}

// AddAsync appends an ASYNC stream entry and returns its stream index.
func (r *Recorder) AddAsync(ev AsyncEvent) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.asyncs = append(r.asyncs, ev)
	return r.asyncBase + len(r.asyncs) - 1
}

// AddSyscall appends a SYSCALL stream entry and returns its stream index.
func (r *Recorder) AddSyscall(rec SyscallRecord) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.syscalls = append(r.syscalls, rec)
	return r.sysBase + len(r.syscalls) - 1
}

// MixOutput folds an observable output byte sequence into the output hash
// used for soft-desync detection (FNV-1a over the concatenated stream).
func (r *Recorder) MixOutput(p []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.hashInited {
		r.outputHash = fnvOffsetBasis
		r.hashInited = true
	}
	r.outputHash = mixHash(r.outputHash, p)
}

const fnvOffsetBasis = 1469598103934665603

// mixHash folds p into FNV-1a state h. Callers seed h with fnvOffsetBasis
// on the first byte of output (tracking initialization explicitly — a
// state value of 0 is a legitimate mid-stream state, not a sentinel).
func mixHash(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// SyscallCount reports the number of syscall records so far, including
// records already flushed to the sink.
func (r *Recorder) SyscallCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sysBase + len(r.syscalls)
}
