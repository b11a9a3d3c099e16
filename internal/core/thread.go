package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/prng"
)

// Thread is a thread of the program under test. All operations on a Thread
// must be performed by the goroutine running that thread.
type Thread struct {
	rt   *Runtime
	id   TID
	name string
	rand *prng.Source // per-thread deterministic PRNG for application logic

	// Pending trace-event details an operation body can fill in for values
	// only known inside the critical section (a syscall's return value and
	// stream offset, a spawned child's tid). Only read when observability
	// is on; owned by the thread's own goroutine, so unsynchronised.
	evArg    int64
	evStream obs.Stream
	evOff    uint64

	// lastTick is the tick of this thread's most recently completed
	// critical section, mirrored from the scheduler so invisible
	// operations (Var accesses) can attribute themselves to a tick without
	// taking the scheduler lock. Owned by the thread's own goroutine.
	lastTick uint64

	// out holds Printf output not yet emitted. Printf runs in invisible
	// code, so emitting there would order output by physical timing;
	// instead the thread emits it at the start of its next critical
	// section, where the schedule fixes the order. Owned by the thread's
	// own goroutine.
	out []byte

	// uncontrolled-mode state
	udone    chan struct{}
	upending []int32
}

func newThread(rt *Runtime, id TID, name string) *Thread {
	return &Thread{rt: rt, id: id, name: name}
}

// ID returns the thread's scheduler id (main is 0).
func (t *Thread) ID() TID { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// critical executes fn as one generic visible operation; see criticalOp.
func (t *Thread) critical(fn func()) { t.criticalOp(obs.KindOp, 0, "", fn) }

// criticalOp executes fn as one visible operation: a Wait/Tick critical
// section (§3.1). If an asynchronous signal is pending when the thread is
// activated, the critical section becomes the signal-handler entry instead
// (itself a visible operation, §3.2/§4.3), the handler body runs, and the
// original operation is retried.
//
// kind, obj and name classify the operation for the observability layer
// and the debugger: when tracing or metrics are on, the event is emitted
// inside the scheduler's Tick so trace order equals tick order, and when a
// debugger is attached its breakpoint predicates are evaluated here —
// after Wait activated the thread, before the operation body runs — so a
// paused run is quiesced with the operation still pending. fn can refine
// the event through t.evArg/evStream/evOff.
func (t *Thread) criticalOp(kind obs.Kind, obj uint64, name string, fn func()) {
	rt := t.rt
	if rt.opts.Uncontrolled {
		t.uncontrolledCritical(fn)
		return
	}
	for {
		if rt.opts.Sequentialize {
			rt.cpu.release(t)
		}
		rt.sch.Wait(t.id)
		if rt.opts.Sequentialize {
			rt.cpu.acquire(t)
		}
		t.flushOutput()
		if sig, ok := rt.sch.ConsumeSignal(t.id); ok {
			// Handler entry is this critical section; the handler body
			// runs outside it, its own visible operations nesting
			// normally.
			rt.mu.Lock()
			h := rt.handlers[sig]
			rt.mu.Unlock()
			if rt.dbg != nil {
				rt.dbg.beforeOp(rt, t.id, obs.KindSigHandler, uint64(uint32(sig)), "")
			}
			if rt.obsOn {
				t.lastTick = rt.sch.TickEvent(t.id, obs.Event{Kind: obs.KindSigHandler, Obj: uint64(uint32(sig))})
				rt.opCount[obs.KindSigHandler].Add(1)
			} else {
				t.lastTick = rt.sch.Tick(t.id)
			}
			if h != nil {
				h(t, sig)
			}
			continue
		}
		if rt.dbg != nil {
			rt.dbg.beforeOp(rt, t.id, kind, obj, name)
		}
		fn()
		if rt.obsOn {
			t.lastTick = rt.sch.TickEvent(t.id, obs.Event{Kind: kind, Obj: obj,
				Arg: t.evArg, Stream: t.evStream, Offset: t.evOff})
			rt.opCount[kind].Add(1)
			t.evArg, t.evStream, t.evOff = 0, obs.StreamNone, 0
		} else {
			t.lastTick = rt.sch.Tick(t.id)
		}
		return
	}
}

// Yield performs an empty visible operation: a pure scheduling point.
func (t *Thread) Yield() {
	if t.rt.opts.Uncontrolled {
		runtime.Gosched()
		return
	}
	t.criticalOp(obs.KindYield, 0, "", func() {})
}

// Rand returns the thread's deterministic PRNG, for application-level
// randomness that must record/replay identically. Lazily seeded from the
// scheduler PRNG inside a critical section, so seeding order is replayed.
func (t *Thread) Rand() *prng.Source {
	if t.rand == nil {
		if t.rt.opts.Uncontrolled {
			t.rand = prng.New(t.rt.opts.Seed1^uint64(t.id)*0x9e3779b97f4a7c15, t.rt.opts.Seed2+uint64(t.id))
			return t.rand
		}
		var s1, s2 uint64
		t.critical(func() {
			s1 = t.rt.sch.Rand().Uint64()
			s2 = t.rt.sch.Rand().Uint64()
		})
		t.rand = prng.New(s1, s2)
	}
	return t.rand
}

// Handle identifies a spawned thread for joining.
type Handle struct {
	t *Thread
}

// TID returns the spawned thread's id.
func (h *Handle) TID() TID { return h.t.id }

// Spawn creates and starts a new thread running fn. Creation is a visible
// operation (§3.2) and establishes the happens-before edge from parent to
// child.
func (t *Thread) Spawn(name string, fn func(*Thread)) *Handle {
	rt := t.rt
	if rt.opts.Uncontrolled {
		h := t.uncontrolledSpawn(name, fn)
		rt.mu.Lock()
		rt.uthreads[h.t.id] = h.t
		rt.mu.Unlock()
		return h
	}
	var child *Thread
	t.criticalOp(obs.KindSpawn, 0, name, func() {
		ctid := rt.sch.ThreadNew(t.id, name)
		rt.detMu.Lock()
		rt.det.OnThreadCreate(t.id, ctid)
		rt.detMu.Unlock()
		child = newThread(rt, ctid, name)
		t.evArg = int64(ctid)
	})
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.threadBody(child, fn)
	}()
	// Model pthread_create cost for strategies where physical arrival
	// order matters (the queue strategy): give the child a head start,
	// returning early once it has run to completion or to a blocking
	// point. Logical strategies (random, PCT) and replay are unaffected
	// by arrival timing, so they skip the wait.
	if rt.rep == nil && rt.opts.SpawnDelay > 0 && rt.opts.Strategy == demo.StrategyQueue {
		deadline := time.Now().Add(rt.opts.SpawnDelay)
		for time.Now().Before(deadline) && !rt.sch.ThreadSettled(child.id) {
			runtime.Gosched()
		}
	}
	return &Handle{t: child}
}

// Join blocks until the thread behind h completes, establishing the
// happens-before edge from the joined thread (§3.2: the joiner disables
// itself in the scheduler until the target's ThreadDelete re-enables it).
func (t *Thread) Join(h *Handle) {
	rt := t.rt
	if rt.opts.Uncontrolled {
		t.uncontrolledJoin(h)
		return
	}
	for {
		finished := false
		t.criticalOp(obs.KindJoin, uint64(uint32(h.t.id)), h.t.name, func() {
			finished = rt.sch.ThreadJoin(t.id, h.t.id)
			if finished {
				rt.detMu.Lock()
				rt.det.OnThreadJoin(t.id, h.t.id)
				rt.detMu.Unlock()
			}
		})
		if finished {
			return
		}
		// We disabled ourselves; the next critical section blocks until
		// the target exits and re-enables us, then the retried ThreadJoin
		// reports completion.
	}
}

// exit deregisters the thread; called by the runtime when fn returns.
func (t *Thread) exit() {
	if t.rt.opts.Uncontrolled {
		return
	}
	t.criticalOp(obs.KindExit, 0, t.name, func() {
		t.rt.sch.ThreadDelete(t.id)
	})
}

// Nap sleeps for up to d of physical time (an invisible operation, used
// for frame pacing and polling backoff). During replay it returns
// immediately: pacing decisions derive from recorded clock reads, so the
// replay runs as fast as the schedule allows.
func (t *Thread) Nap(d time.Duration) {
	if t.rt.rep != nil || d <= 0 {
		return
	}
	if d > 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	time.Sleep(d)
}

// Printf emits observable program output, collected into the report and
// folded into the soft-desync hash. Under the scheduler the output is
// buffered and emitted at the thread's next visible operation (see
// flushOutput), so its order among threads is the schedule's.
func (t *Thread) Printf(format string, args ...any) {
	if t.rt.opts.Uncontrolled {
		t.rt.emit(fmt.Appendf(nil, format, args...))
		return
	}
	t.out = fmt.Appendf(t.out, format, args...)
}

// flushOutput emits the thread's buffered output. Called inside the
// thread's critical section, before the tick that the recorder latches,
// so a demo cut at that tick carries the matching output hash.
func (t *Thread) flushOutput() {
	if len(t.out) > 0 {
		t.rt.emit(t.out)
		t.out = t.out[:0]
	}
}

// spin busy-waits for roughly d, modelling fixed per-event instrumentation
// cost without yielding the OS thread.
func spin(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
	}
}
