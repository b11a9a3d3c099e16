package demo

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/prng"
)

// randomRecordedDemo drives a Recorder the way a real run would — per-tick
// schedule notes for queue demos, occasional floated events and syscall
// records, output mixing — so the mutation property test runs over demos
// with realistic stream shapes rather than hand-built structs.
func randomRecordedDemo(rng *prng.Source) *Demo {
	strats := []Strategy{StrategyRandom, StrategyQueue, StrategyPCT, StrategyDelay}
	strat := strats[rng.Intn(len(strats))]
	r := NewRecorder(strat, rng.Uint64(), rng.Uint64())
	threads := 1 + rng.Intn(4)
	final := 1 + rng.Uint64n(40)
	for tick := uint64(1); tick <= final; tick++ {
		tid := int32(rng.Intn(threads))
		if strat == StrategyQueue {
			r.NoteSchedule(tid, tick)
		}
		if rng.Intn(6) == 0 {
			r.AddSignal(SignalEvent{TID: tid, Tick: tick, Sig: int32(1 + rng.Intn(30))})
		}
		if rng.Intn(6) == 0 {
			r.AddAsync(AsyncEvent{Kind: AsyncKind(rng.Intn(3)), Tick: tick, TID: tid})
		}
		if rng.Intn(8) == 0 {
			r.AddSyscall(SyscallRecord{TID: tid, Kind: uint16(rng.Intn(5)), Ret: int64(rng.Intn(100))})
		}
		r.MixOutput([]byte{byte(tick)})
	}
	return mustClose(r, final)
}

// TestPropertyOperatorsValidOrReject: over randomized recorded demos,
// every operator either rejects with ErrNotApplicable or yields a
// Validate-clean mutant, never panicking, never emitting a silently
// invalid demo, and never touching its input.
func TestPropertyOperatorsValidOrReject(t *testing.T) {
	rng := prng.New(0x917, 0x4a3)
	applied := make(map[string]int)
	for i := 0; i < 300; i++ {
		d := randomRecordedDemo(rng)
		if err := d.Validate(); err != nil {
			t.Fatalf("iteration %d: generator produced an invalid demo: %v", i, err)
		}
		before := d.Encode()
		for _, op := range DefaultOps() {
			m, err := op.Apply(d, rng)
			if err != nil {
				if !errors.Is(err, ErrNotApplicable) {
					t.Fatalf("iteration %d: operator %s returned a non-rejection error: %v", i, op.Name(), err)
				}
				continue
			}
			applied[op.Name()]++
			if verr := m.Validate(); verr != nil {
				t.Errorf("iteration %d: operator %s produced an invalid demo: %v", i, op.Name(), verr)
			}
			if m.Truncated {
				t.Errorf("iteration %d: operator %s marked the mutant Truncated — replay would stop instead of extending live", i, op.Name())
			}
			if !bytes.Equal(before, d.Encode()) {
				t.Fatalf("iteration %d: operator %s mutated its input", i, op.Name())
			}
		}
		m, name, err := MutateOnce(d, rng, nil)
		if err != nil {
			if !errors.Is(err, ErrNotApplicable) {
				t.Fatalf("iteration %d: MutateOnce returned a non-rejection error: %v", i, err)
			}
			continue
		}
		if name == "" || m.Validate() != nil {
			t.Fatalf("iteration %d: MutateOnce returned op %q with validation %v", i, name, m.Validate())
		}
	}
	for _, op := range DefaultOps() {
		if applied[op.Name()] == 0 {
			t.Errorf("operator %s never applied across 300 random demos; generator or operator too narrow", op.Name())
		}
	}
	t.Logf("applications per operator: %v", applied)
}

// TestPropertyMutationChainsStayValid: stacked mutations (the MaxChain
// adoption path in explore.MutationQueue) keep validity at every depth.
func TestPropertyMutationChainsStayValid(t *testing.T) {
	rng := prng.New(0xc4a1, 0x22)
	for i := 0; i < 60; i++ {
		d := randomRecordedDemo(rng)
		for depth := 0; depth < 4; depth++ {
			m, name, err := MutateOnce(d, rng, nil)
			if err != nil {
				if !errors.Is(err, ErrNotApplicable) {
					t.Fatalf("iteration %d depth %d: %v", i, depth, err)
				}
				break
			}
			if verr := m.Validate(); verr != nil {
				t.Fatalf("iteration %d depth %d: op %s broke validity: %v", i, depth, name, verr)
			}
			d = m
		}
	}
}

func TestMutateOnceRejectsBarrenDemo(t *testing.T) {
	// A zero-tick random demo offers no schedule, no events, nothing to
	// truncate: every operator must reject and MutateOnce must wrap
	// ErrNotApplicable.
	d := &Demo{Strategy: StrategyRandom, Seed1: 1, Seed2: 2}
	if err := d.Validate(); err != nil {
		t.Fatalf("barren demo unexpectedly invalid: %v", err)
	}
	_, _, err := MutateOnce(d, prng.New(1, 2), nil)
	if !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("MutateOnce on a barren demo: %v, want ErrNotApplicable", err)
	}
}

func TestMutateOnceDeterministic(t *testing.T) {
	d := randomRecordedDemo(prng.New(5, 6))
	a, opA, errA := MutateOnce(d, prng.New(77, 88), nil)
	b, opB, errB := MutateOnce(d, prng.New(77, 88), nil)
	if (errA == nil) != (errB == nil) || opA != opB {
		t.Fatalf("MutateOnce not deterministic: %v/%v vs %v/%v", opA, errA, opB, errB)
	}
	if errA == nil && !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("same seed produced different mutants")
	}
}

func TestTruncateToKeepsSyscallsAndClearsTruncated(t *testing.T) {
	d := sampleDemo()
	d.Truncated = false
	c := d.TruncateTo(4)
	if c.FinalTick != 4 || c.Truncated {
		t.Fatalf("TruncateTo(4): FinalTick=%d Truncated=%v", c.FinalTick, c.Truncated)
	}
	if len(c.Syscalls) != len(d.Syscalls) {
		t.Fatal("TruncateTo dropped syscall records")
	}
	for _, ev := range c.Signals {
		if ev.Tick > 4 {
			t.Fatalf("signal at tick %d survived the cut", ev.Tick)
		}
	}
	for _, ev := range c.Asyncs {
		if ev.Tick > 4 {
			t.Fatalf("async at tick %d survived the cut", ev.Tick)
		}
	}
	if _, ok := c.Queue.FirstTick[1]; !ok {
		t.Fatal("thread first scheduled at tick 4 should survive TruncateTo(4)")
	}
}
