package core

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/tsan"
)

// Memory orders re-exported for programs under test.
const (
	Relaxed = tsan.Relaxed
	Acquire = tsan.Acquire
	Release = tsan.Release
	AcqRel  = tsan.AcqRel
	SeqCst  = tsan.SeqCst
)

// MemoryOrder aliases the detector's order type.
type MemoryOrder = tsan.MemoryOrder

// Atomic64 is an instrumented 64-bit atomic location with C++11 memory
// order semantics. Every operation is a visible operation; relaxed loads
// may return stale values from the location's store history, resolved by a
// recorded-deterministic PRNG draw (the tsan11 memory model).
type Atomic64 struct {
	rt    *Runtime
	id    uint64 // object id carried by trace events
	name  string
	state *tsan.AtomicState
	nval  uint64 // native baseline backing value
}

// NewAtomic64 creates an atomic location. Must be called before Run (setup
// code); for creation from inside the program use Thread.NewAtomic64.
func (rt *Runtime) NewAtomic64(name string, init uint64) *Atomic64 {
	return &Atomic64{rt: rt, id: rt.nextSyncID(), name: name, state: tsan.NewAtomicState(rt.det, 0, init), nval: init}
}

// NewAtomic64 creates an atomic location from running code; creation is a
// visible operation so the initialising write is attributed correctly.
func (t *Thread) NewAtomic64(name string, init uint64) *Atomic64 {
	a := &Atomic64{rt: t.rt, id: t.rt.nextSyncID(), name: name, nval: init}
	if t.rt.native() {
		return a
	}
	t.criticalOp(obs.KindAtomicStore, a.id, name, func() {
		t.rt.detMu.Lock()
		a.state = tsan.NewAtomicState(t.rt.det, t.id, init)
		t.rt.detMu.Unlock()
	})
	return a
}

// Load performs an atomic load with the given memory order.
func (a *Atomic64) Load(t *Thread, order MemoryOrder) uint64 {
	if a.rt.native() {
		return atomic.LoadUint64(&a.nval)
	}
	var v uint64
	t.criticalOp(obs.KindAtomicLoad, a.id, a.name, func() {
		a.rt.detMu.Lock()
		v = a.rt.det.Load(a.state, t.id, order)
		a.rt.detMu.Unlock()
		t.evArg = int64(v)
	})
	return v
}

// Store performs an atomic store with the given memory order.
func (a *Atomic64) Store(t *Thread, v uint64, order MemoryOrder) {
	if a.rt.native() {
		atomic.StoreUint64(&a.nval, v)
		return
	}
	t.criticalOp(obs.KindAtomicStore, a.id, a.name, func() {
		a.rt.detMu.Lock()
		a.rt.det.Store(a.state, t.id, v, order)
		a.rt.detMu.Unlock()
		t.evArg = int64(v)
	})
}

// Add atomically adds delta and returns the previous value.
func (a *Atomic64) Add(t *Thread, delta uint64, order MemoryOrder) uint64 {
	if a.rt.native() {
		return atomic.AddUint64(&a.nval, delta) - delta
	}
	var old uint64
	t.criticalOp(obs.KindAtomicRMW, a.id, a.name, func() {
		a.rt.detMu.Lock()
		old = a.rt.det.RMW(a.state, t.id, order, func(o uint64) uint64 { return o + delta })
		a.rt.detMu.Unlock()
		t.evArg = int64(old)
	})
	return old
}

// Exchange atomically replaces the value, returning the previous one.
func (a *Atomic64) Exchange(t *Thread, v uint64, order MemoryOrder) uint64 {
	if a.rt.native() {
		return atomic.SwapUint64(&a.nval, v)
	}
	var old uint64
	t.criticalOp(obs.KindAtomicRMW, a.id, a.name, func() {
		a.rt.detMu.Lock()
		old = a.rt.det.RMW(a.state, t.id, order, func(uint64) uint64 { return v })
		a.rt.detMu.Unlock()
		t.evArg = int64(old)
	})
	return old
}

// CompareExchange performs a strong compare-and-swap, returning the value
// seen and whether the swap happened. failOrder applies on failure, as in
// C++11 compare_exchange_strong.
func (a *Atomic64) CompareExchange(t *Thread, expected, desired uint64, order, failOrder MemoryOrder) (uint64, bool) {
	if a.rt.native() {
		if atomic.CompareAndSwapUint64(&a.nval, expected, desired) {
			return expected, true
		}
		return atomic.LoadUint64(&a.nval), false
	}
	var old uint64
	var ok bool
	t.criticalOp(obs.KindAtomicRMW, a.id, a.name, func() {
		a.rt.detMu.Lock()
		old, ok = a.rt.det.CompareExchange(a.state, t.id, expected, desired, order, failOrder)
		a.rt.detMu.Unlock()
		t.evArg = int64(old)
	})
	return old, ok
}

// Latest returns the newest value in modification order without
// synchronisation or scheduling effects. For assertions in tests only.
func (a *Atomic64) Latest() uint64 {
	if a.rt.native() {
		return atomic.LoadUint64(&a.nval)
	}
	return a.state.Latest()
}

// Fence issues an atomic_thread_fence with the given order; a visible
// operation.
func (t *Thread) Fence(order MemoryOrder) {
	if t.rt.native() {
		return
	}
	t.criticalOp(obs.KindFence, uint64(order), "", func() {
		t.rt.detMu.Lock()
		t.rt.det.Fence(t.id, order)
		t.rt.detMu.Unlock()
	})
}

// Var is an instrumented non-atomic location holding a value of type V.
// Accesses are invisible operations (no scheduling point — different
// threads' accesses run in parallel, §3.1) but are race-checked against
// the happens-before relation, like tsan's shadow-memory instrumentation.
type Var[V any] struct {
	rt     *Runtime
	name   string
	shadow tsan.Shadow
	claim  tsan.LocalClaim
	local  bool
	v      V
}

// NewVar creates a race-checked non-atomic location. When the runtime was
// given a sparsity report (Options.Sharing) that proves every creation
// site of this name single-thread-reachable, accesses skip the detector —
// no detMu, no shadow state — behind the per-instance claim check.
func NewVar[V any](rt *Runtime, name string, init V) *Var[V] {
	return &Var[V]{rt: rt, name: name, v: init, local: rt.det.StaticLocal(name)}
}

// Read returns the value, reporting a race if it conflicts with a
// concurrent write.
func (x *Var[V]) Read(t *Thread) V {
	if x.local {
		x.rt.det.OnLocalAccess(&x.claim, t.id, x.name)
		return x.v
	}
	x.rt.detMu.Lock()
	if !x.rt.opts.DisableRaces {
		x.rt.det.OnRead(&x.shadow, t.id, x.name)
	}
	v := x.v
	x.rt.detMu.Unlock()
	return v
}

// Write stores a value, reporting a race if it conflicts with a concurrent
// access.
func (x *Var[V]) Write(t *Thread, v V) {
	if dbg := x.rt.dbg; dbg != nil {
		dbg.widx.Note(x.name, t.id, t.lastTick)
	}
	if x.local {
		x.rt.det.OnLocalAccess(&x.claim, t.id, x.name)
		x.v = v
		return
	}
	x.rt.detMu.Lock()
	if !x.rt.opts.DisableRaces {
		x.rt.det.OnWrite(&x.shadow, t.id, x.name)
	}
	x.v = v
	x.rt.detMu.Unlock()
}

// Update applies fn to the value in place (a read and a write).
func (x *Var[V]) Update(t *Thread, fn func(V) V) {
	if dbg := x.rt.dbg; dbg != nil {
		dbg.widx.Note(x.name, t.id, t.lastTick)
	}
	if x.local {
		x.rt.det.OnLocalAccess(&x.claim, t.id, x.name)
		x.v = fn(x.v)
		return
	}
	x.rt.detMu.Lock()
	if !x.rt.opts.DisableRaces {
		x.rt.det.OnRead(&x.shadow, t.id, x.name)
		x.rt.det.OnWrite(&x.shadow, t.id, x.name)
	}
	x.v = fn(x.v)
	x.rt.detMu.Unlock()
}
