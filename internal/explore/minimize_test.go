package explore

import (
	"testing"

	"repro/internal/demo"
)

// TestMinimizerProperty is the satellite property test: for every distinct
// failure the sweep records, the minimized demo (a) still validates, (b)
// is no larger than the original, and (c) replays fully synchronised to
// the same failure signature.
func TestMinimizerProperty(t *testing.T) {
	cfg := detCfg(t, 4)
	cfg.Trials = 9
	cfg.Minimize = true
	cfg.MinimizeBudget = 40
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("sweep found no failures to minimize")
	}
	reproduced := 0
	for _, f := range res.Failures {
		if f.Minimized == nil {
			t.Fatalf("failure %q has no minimized demo", f.Signature)
		}
		if err := f.Minimized.Validate(); err != nil {
			t.Errorf("failure %q: minimized demo invalid: %v", f.Signature, err)
		}
		if f.Minimized.Size() > f.Demo.Size() {
			t.Errorf("failure %q: minimizer grew the demo: %d > %d bytes",
				f.Signature, f.Minimized.Size(), f.Demo.Size())
		}
		if f.MinimizeReplays == 0 {
			t.Errorf("failure %q: minimizer spent no replays", f.Signature)
		}
		if !f.Reproduced {
			continue
		}
		reproduced++
		if f.Minimized.FinalTick > f.Demo.FinalTick {
			t.Errorf("failure %q: minimized FinalTick grew: %d > %d",
				f.Signature, f.Minimized.FinalTick, f.Demo.FinalTick)
		}
		if sig := replaySignature(&cfg, f.Minimized); sig != f.Signature {
			t.Errorf("failure %q: minimized demo replays to %q", f.Signature, sig)
		}
	}
	if reproduced == 0 {
		t.Fatal("no failure reproduced under replay; minimization never ran")
	}
}

// TestMinimizerQueueStrategy exercises the queue stream: a queue demo's
// interleaving lives in Queue.FirstTick/Ticks and dictates the whole
// schedule, so its replay is deterministic even though queue *recording*
// depends on physical arrival order. The minimizer therefore never cuts
// it short (past a cut, arrival order would decide again), and the
// minimized demo must reproduce on every replay.
func TestMinimizerQueueStrategy(t *testing.T) {
	cfg := detCfg(t, 1)
	cfg.Source = &SeedRotation{MasterSeed: 42, Strategies: []demo.Strategy{demo.StrategyQueue}}
	cfg.Trials = 4
	cfg.Minimize = true
	cfg.MinimizeBudget = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		if f.Minimized == nil || f.Minimized.Strategy != demo.StrategyQueue {
			t.Fatalf("failure %q: expected a queue demo, got %+v", f.Signature, f.Minimized)
		}
		if err := f.Minimized.Validate(); err != nil {
			t.Errorf("failure %q: minimized queue demo invalid: %v", f.Signature, err)
		}
		if f.Minimized.Size() > f.Demo.Size() {
			t.Errorf("failure %q: minimizer grew the demo", f.Signature)
		}
		if f.Reproduced {
			if sig := replaySignature(&cfg, f.Minimized); sig != f.Signature {
				t.Errorf("failure %q: minimized queue demo replays to %q", f.Signature, sig)
			}
		}
	}
}

func TestTruncateDemo(t *testing.T) {
	d := &demo.Demo{
		Strategy:  demo.StrategyQueue,
		FinalTick: 10,
		Queue: demo.Queue{
			FirstTick: map[int32]uint64{0: 1, 1: 4, 2: 9},
			Ticks:     []uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 0},
		},
		Signals: []demo.SignalEvent{{TID: 1, Tick: 3, Sig: 10}, {TID: 1, Tick: 8, Sig: 10}},
		Asyncs:  []demo.AsyncEvent{{Kind: demo.AsyncReschedule, Tick: 2}, {Kind: demo.AsyncReschedule, Tick: 7}},
		Syscalls: []demo.SyscallRecord{
			{TID: 0, Kind: 1, Ret: 5, Bufs: [][]byte{[]byte("hello")}},
		},
	}
	c := d.TruncateTo(5)
	if c.FinalTick != 5 {
		t.Fatalf("FinalTick = %d", c.FinalTick)
	}
	if _, ok := c.Queue.FirstTick[2]; ok {
		t.Error("thread first scheduled past the cut survived truncation")
	}
	if len(c.Queue.Ticks) != 5 {
		t.Errorf("queue ticks not cut: %d", len(c.Queue.Ticks))
	}
	if len(c.Signals) != 1 || len(c.Asyncs) != 1 {
		t.Errorf("events past the cut survived: %d signals, %d asyncs", len(c.Signals), len(c.Asyncs))
	}
	if len(c.Syscalls) != 1 {
		t.Error("syscall records must never be dropped")
	}
	// The original must be untouched (Clone, not alias).
	if d.FinalTick != 10 || len(d.Queue.FirstTick) != 3 || len(d.Signals) != 2 {
		t.Fatalf("truncateDemo mutated its input: %+v", d)
	}
}

func TestSignatureOfStability(t *testing.T) {
	cfg := detCfg(t, 1)
	cfg.Trials = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		if f.Signature == "" {
			t.Fatal("failing trial produced an empty signature")
		}
		if sig := replaySignature(&cfg, f.Demo); sig != f.Signature {
			t.Errorf("recorded signature %q but replay yields %q", f.Signature, sig)
		}
	}
}
