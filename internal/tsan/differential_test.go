package tsan

import (
	"fmt"
	"testing"

	"repro/internal/prng"
	"repro/internal/vclock"
)

// This file is the differential-correctness oracle for the FastTrack-style
// hot-path rewrite: refDetector is a deliberately naive transcription of
// the detector as it was BEFORE the rewrite — full read clocks, a deep
// Copy() per release store/fence/edge, map-based per-location state, and
// accumulating mutex clocks. The optimized detector must be extensionally
// identical: same race reports in the same order, same values returned by
// every atomic load, and the same number of PRNG draws (the draws are
// interleaved with the scheduler's during record/replay, so even one extra
// draw would desynchronise existing demos).

type refStore struct {
	value   uint64
	tid     TID
	epoch   vclock.Epoch
	release *vclock.Clock
	seqCst  bool
}

type refAtomic struct {
	history  []refStore
	base     int
	lastSeen map[TID]int
	lastSC   int
}

type refShadow struct {
	writeTID   TID
	writeEpoch vclock.Epoch
	reads      vclock.Clock
}

type refDetector struct {
	opts           Options
	rng            *prng.Source
	clocks         []*vclock.Clock
	scClock        *vclock.Clock
	pendingAcquire []*vclock.Clock
	releaseFence   []*vclock.Clock
	reports        []Report
	seen           map[reportKey]bool
}

func newRefDetector(rng *prng.Source, opts Options) *refDetector {
	if opts.HistoryDepth <= 0 {
		opts.HistoryDepth = 8
	}
	d := &refDetector{opts: opts, rng: rng, scClock: &vclock.Clock{}, seen: make(map[reportKey]bool)}
	d.registerThread(0)
	return d
}

func (d *refDetector) registerThread(tid TID) {
	for int(tid) >= len(d.clocks) {
		d.clocks = append(d.clocks, &vclock.Clock{})
		d.pendingAcquire = append(d.pendingAcquire, &vclock.Clock{})
		d.releaseFence = append(d.releaseFence, nil)
	}
	d.clocks[tid].Tick(tid)
}

func (d *refDetector) report(loc string, a, b Access) {
	key := reportKey{loc, a.TID, b.TID, a.Kind, b.Kind}
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	if len(d.reports) < 128 { // the detector's report cap
		d.reports = append(d.reports, Report{Location: loc, First: a, Second: b})
	}
}

func (d *refDetector) onThreadCreate(parent, child TID) {
	d.registerThread(child)
	d.clocks[child].Join(d.clocks[parent])
	d.clocks[child].Tick(child)
	d.clocks[parent].Tick(parent)
}

func (d *refDetector) onThreadJoin(waiter, target TID) {
	d.clocks[waiter].Join(d.clocks[target])
	d.clocks[waiter].Tick(waiter)
}

func (d *refDetector) acquireEdge(tid TID, c *vclock.Clock) { d.clocks[tid].Join(c) }

func (d *refDetector) releaseEdge(tid TID, c *vclock.Clock) {
	c.Join(d.clocks[tid])
	d.clocks[tid].Tick(tid)
}

func (d *refDetector) fence(tid TID, order MemoryOrder) {
	if order.acquires() {
		d.clocks[tid].Join(d.pendingAcquire[tid])
		d.pendingAcquire[tid] = &vclock.Clock{}
	}
	if order.releases() {
		d.releaseFence[tid] = d.clocks[tid].Copy()
		d.clocks[tid].Tick(tid)
	}
	if order == SeqCst {
		d.clocks[tid].Join(d.scClock)
		d.scClock.Join(d.clocks[tid])
	}
}

func (d *refDetector) onRead(sh *refShadow, tid TID, name string) {
	c := d.clocks[tid]
	if sh.writeEpoch != 0 && !vclock.HappensBefore(sh.writeTID, sh.writeEpoch, c) {
		d.report(name, Access{TID: sh.writeTID, Epoch: sh.writeEpoch, Kind: KindWrite},
			Access{TID: tid, Epoch: c.Get(tid), Kind: KindRead})
	}
	sh.reads.Set(tid, c.Get(tid))
}

func (d *refDetector) onWrite(sh *refShadow, tid TID, name string) {
	c := d.clocks[tid]
	if sh.writeEpoch != 0 && !vclock.HappensBefore(sh.writeTID, sh.writeEpoch, c) {
		d.report(name, Access{TID: sh.writeTID, Epoch: sh.writeEpoch, Kind: KindWrite},
			Access{TID: tid, Epoch: c.Get(tid), Kind: KindWrite})
	}
	for i := 0; i < sh.reads.Len(); i++ {
		rt := TID(i)
		re := sh.reads.Get(rt)
		if re != 0 && rt != tid && !vclock.HappensBefore(rt, re, c) {
			d.report(name, Access{TID: rt, Epoch: re, Kind: KindRead},
				Access{TID: tid, Epoch: c.Get(tid), Kind: KindWrite})
		}
	}
	sh.writeTID = tid
	sh.writeEpoch = c.Get(tid)
	sh.reads = vclock.Clock{}
}

func (d *refDetector) newAtomic(tid TID, init uint64) *refAtomic {
	a := &refAtomic{lastSeen: make(map[TID]int), lastSC: -1}
	a.history = append(a.history, refStore{value: init, tid: tid, epoch: d.clocks[tid].Get(tid)})
	return a
}

func (a *refAtomic) top() *refStore { return &a.history[len(a.history)-1] }

func (a *refAtomic) topIndex() int { return a.base + len(a.history) - 1 }

func (a *refAtomic) minVisibleIndex(d *refDetector, tid TID) int {
	min := a.base
	if seen, ok := a.lastSeen[tid]; ok && seen > min {
		min = seen
	}
	c := d.clocks[tid]
	for i := len(a.history) - 1; i >= 0; i-- {
		rec := &a.history[i]
		if vclock.HappensBefore(rec.tid, rec.epoch, c) {
			if a.base+i > min {
				min = a.base + i
			}
			break
		}
	}
	return min
}

func (d *refDetector) load(a *refAtomic, tid TID, order MemoryOrder) uint64 {
	min := a.minVisibleIndex(d, tid)
	if d.opts.SequentialConsistency {
		min = a.topIndex()
	}
	if order == SeqCst {
		d.clocks[tid].Join(d.scClock)
		if a.lastSC > min {
			min = a.lastSC
		}
	}
	top := a.topIndex()
	idx := top
	if min < top {
		idx = min + d.rng.Intn(top-min+1)
	}
	rec := &a.history[idx-a.base]
	a.lastSeen[tid] = idx
	if rec.release != nil {
		if order.acquires() {
			d.clocks[tid].Join(rec.release)
		} else {
			d.pendingAcquire[tid].Join(rec.release)
		}
	}
	if order == SeqCst {
		d.scClock.Join(d.clocks[tid])
	}
	return rec.value
}

func (d *refDetector) appendStore(a *refAtomic, tid TID, value uint64, order MemoryOrder, rmw bool) {
	if order == SeqCst {
		d.clocks[tid].Join(d.scClock)
	}
	rec := refStore{value: value, tid: tid, epoch: d.clocks[tid].Get(tid), seqCst: order == SeqCst}
	if order.releases() {
		rec.release = d.clocks[tid].Copy()
	} else if rf := d.releaseFence[tid]; rf != nil {
		rec.release = rf.Copy()
	}
	if rmw {
		if prev := a.top(); prev.release != nil {
			if rec.release == nil {
				rec.release = prev.release.Copy()
			} else {
				rec.release.Join(prev.release)
			}
		}
	}
	a.history = append(a.history, rec)
	if len(a.history) > d.opts.HistoryDepth {
		drop := len(a.history) - d.opts.HistoryDepth
		a.history = append(a.history[:0], a.history[drop:]...)
		a.base += drop
	}
	a.lastSeen[tid] = a.topIndex()
	if order == SeqCst {
		a.lastSC = a.topIndex()
		d.scClock.Join(d.clocks[tid])
	}
	if order.releases() {
		d.clocks[tid].Tick(tid)
	}
}

func (d *refDetector) rmw(a *refAtomic, tid TID, order MemoryOrder, fn func(uint64) uint64) uint64 {
	old := a.top().value
	if rel := a.top().release; rel != nil {
		if order.acquires() {
			d.clocks[tid].Join(rel)
		} else {
			d.pendingAcquire[tid].Join(rel)
		}
	}
	if order == SeqCst {
		d.clocks[tid].Join(d.scClock)
	}
	d.appendStore(a, tid, fn(old), order, true)
	return old
}

func (d *refDetector) compareExchange(a *refAtomic, tid TID, expected, desired uint64, order, failOrder MemoryOrder) (uint64, bool) {
	old := a.top().value
	if old != expected {
		if rel := a.top().release; rel != nil {
			if failOrder.acquires() {
				d.clocks[tid].Join(rel)
			} else {
				d.pendingAcquire[tid].Join(rel)
			}
		}
		a.lastSeen[tid] = a.topIndex()
		return old, false
	}
	d.rmw(a, tid, order, func(uint64) uint64 { return desired })
	return old, true
}

func reportsText(reports []Report) string {
	var out string
	for _, r := range reports {
		out += r.String() + "\n"
	}
	return out
}

// TestDifferentialAgainstReference drives the optimized detector and the
// naive reference through identical randomized operation schedules —
// non-atomic accesses, atomics at every memory order, RMWs, CASes, fences,
// and mutex lock/unlock (where the optimized side replaces the mutex clock
// with a snapshot while the reference accumulates into it) — and requires
// identical load values, race reports, and PRNG draw counts throughout.
func TestDifferentialAgainstReference(t *testing.T) {
	const (
		nThreads = 6
		nVars    = 3
		nAtomics = 3
		nMutexes = 2
		nSteps   = 600
	)
	orders := []MemoryOrder{Relaxed, Acquire, Release, AcqRel, SeqCst}
	for seed := uint64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// One PRNG drives the schedule; two independent but identically
			// seeded PRNGs serve the two detectors' stale-value draws.
			sched := prng.New(seed, 0xd1f)
			rngOpt := prng.New(seed, 0xbeef)
			rngRef := prng.New(seed, 0xbeef)
			opt := New(rngOpt, Options{HistoryDepth: 4})
			ref := newRefDetector(rngRef, Options{HistoryDepth: 4})

			optAtomics := make([]*AtomicState, nAtomics)
			refAtomics := make([]*refAtomic, nAtomics)
			for i := range optAtomics {
				optAtomics[i] = NewAtomicState(opt, 0, uint64(i))
				refAtomics[i] = ref.newAtomic(0, uint64(i))
			}
			optShadows := make([]Shadow, nVars)
			refShadows := make([]refShadow, nVars)
			// Mutexes: the optimized side holds a replaced snapshot, the
			// reference an accumulating clock; holder tracks lock state so
			// the schedule only generates well-formed lock/unlock pairs.
			optMu := make([]vclock.Snapshot, nMutexes)
			refMu := make([]*vclock.Clock, nMutexes)
			holder := make([]TID, nMutexes)
			for i := range refMu {
				refMu[i] = &vclock.Clock{}
				holder[i] = -1
			}

			for tid := TID(1); tid < nThreads; tid++ {
				opt.OnThreadCreate(0, tid)
				ref.onThreadCreate(0, tid)
			}

			for step := 0; step < nSteps; step++ {
				tid := TID(sched.Intn(nThreads))
				switch sched.Intn(7) {
				case 0:
					v := sched.Intn(nVars)
					name := fmt.Sprintf("v%d", v)
					opt.OnRead(&optShadows[v], tid, name)
					ref.onRead(&refShadows[v], tid, name)
				case 1:
					v := sched.Intn(nVars)
					name := fmt.Sprintf("v%d", v)
					opt.OnWrite(&optShadows[v], tid, name)
					ref.onWrite(&refShadows[v], tid, name)
				case 2:
					a := sched.Intn(nAtomics)
					order := orders[sched.Intn(len(orders))]
					got := opt.Load(optAtomics[a], tid, order)
					want := ref.load(refAtomics[a], tid, order)
					if got != want {
						t.Fatalf("step %d: load(a%d, %v) by %d: optimized %d, reference %d",
							step, a, order, tid, got, want)
					}
				case 3:
					a := sched.Intn(nAtomics)
					order := orders[sched.Intn(len(orders))]
					val := sched.Uint64() % 8
					opt.Store(optAtomics[a], tid, val, order)
					ref.appendStore(refAtomics[a], tid, val, order, false)
				case 4:
					a := sched.Intn(nAtomics)
					order := orders[sched.Intn(len(orders))]
					if sched.Intn(2) == 0 {
						got := opt.RMW(optAtomics[a], tid, order, func(v uint64) uint64 { return v + 1 })
						want := ref.rmw(refAtomics[a], tid, order, func(v uint64) uint64 { return v + 1 })
						if got != want {
							t.Fatalf("step %d: rmw old value: optimized %d, reference %d", step, got, want)
						}
					} else {
						exp := sched.Uint64() % 8
						des := sched.Uint64() % 8
						failOrder := orders[sched.Intn(len(orders))]
						gotV, gotOK := opt.CompareExchange(optAtomics[a], tid, exp, des, order, failOrder)
						wantV, wantOK := ref.compareExchange(refAtomics[a], tid, exp, des, order, failOrder)
						if gotV != wantV || gotOK != wantOK {
							t.Fatalf("step %d: cas: optimized (%d,%v), reference (%d,%v)",
								step, gotV, gotOK, wantV, wantOK)
						}
					}
				case 5:
					order := orders[sched.Intn(len(orders))]
					opt.Fence(tid, order)
					ref.fence(tid, order)
				case 6:
					m := sched.Intn(nMutexes)
					switch {
					case holder[m] == -1:
						holder[m] = tid
						opt.AcquireSnapshot(tid, optMu[m])
						ref.acquireEdge(tid, refMu[m])
					case holder[m] == tid:
						holder[m] = -1
						optMu[m] = opt.ReleaseSnapshot(tid)
						ref.releaseEdge(tid, refMu[m])
					default:
						// Lock held by another thread: the schedule skips
						// the op (neither detector sees anything).
					}
				}
				if opt.rng.Draws() != ref.rng.Draws() {
					t.Fatalf("step %d: PRNG draw counts diverged: optimized %d, reference %d",
						step, opt.rng.Draws(), ref.rng.Draws())
				}
			}
			for tid := TID(1); tid < nThreads; tid++ {
				opt.OnThreadJoin(0, tid)
				ref.onThreadJoin(0, tid)
			}
			// Final clocks must agree exactly: any divergence in the
			// snapshot plumbing shows up as a weaker (or stronger) clock.
			for tid := TID(0); tid < nThreads; tid++ {
				oc, rc := opt.clock(tid), ref.clocks[tid]
				if !oc.LessEq(rc) || !rc.LessEq(oc) {
					t.Errorf("thread %d final clock: optimized %v, reference %v", tid, oc, rc)
				}
			}
			if got, want := reportsText(opt.Reports()), reportsText(ref.reports); got != want {
				t.Errorf("race reports diverged.\noptimized:\n%sreference:\n%s", got, want)
			}
			if got, want := opt.rng.Draws(), ref.rng.Draws(); got != want {
				t.Errorf("total PRNG draws: optimized %d, reference %d", got, want)
			}
		})
	}
}
