package core

import (
	"fmt"
	"testing"

	"repro/internal/demo"
	"repro/internal/prng"
)

// Random-program record/replay equivalence: generate arbitrary concurrent
// programs over the full API surface (atomics with every memory order,
// mutexes, condvars, yields, signals, pipes, output), record an execution,
// replay it, and require identical observable behaviour. This is the
// tool's core contract (§4: a replay that satisfies every constraint is
// synchronised), checked here wholesale rather than per feature.

// genProgram builds a deterministic random program from a seed. The
// returned function must be re-runnable against a fresh runtime (replay
// runs it again), so all choices derive from the seed, not from execution.
type genConfig struct {
	threads int
	opsPer  int
	seed    uint64
}

func genProgram(cfg genConfig) func(rt *Runtime) func(*Thread) {
	return func(rt *Runtime) func(*Thread) {
		return func(main *Thread) {
			gen := prng.New(cfg.seed, cfg.seed^0x5ee0)
			atoms := []*Atomic64{
				main.NewAtomic64("g.a0", 0),
				main.NewAtomic64("g.a1", 10),
			}
			mu := rt.NewMutex("g.mu")
			cv := rt.NewCond("g.cv", mu)
			shared := NewVar(rt, "g.shared", 0)
			pr, pw := main.Pipe()

			orders := []MemoryOrder{Relaxed, Acquire, Release, AcqRel, SeqCst}

			// Pre-generate each thread's op script from the seed.
			scripts := make([][]int, cfg.threads)
			for i := range scripts {
				scripts[i] = make([]int, cfg.opsPer)
				for j := range scripts[i] {
					scripts[i][j] = gen.Intn(10)
				}
			}

			var hs []*Handle
			for w := 0; w < cfg.threads; w++ {
				script := scripts[w]
				wid := w
				hs = append(hs, main.Spawn(fmt.Sprintf("g%d", wid), func(t *Thread) {
					for j, op := range script {
						a := atoms[(wid+j)%len(atoms)]
						ord := orders[(wid*7+j)%len(orders)]
						switch op {
						case 0:
							a.Store(t, uint64(wid*100+j), ord)
						case 1:
							v := a.Load(t, ord)
							if v%3 == 0 {
								t.Printf("t%d saw %d\n", wid, v)
							}
						case 2:
							a.Add(t, 1, ord)
						case 3:
							a.CompareExchange(t, uint64(j), uint64(wid), ord, Relaxed)
						case 4:
							mu.Lock(t)
							shared.Update(t, func(v int) int { return v + 1 })
							mu.Unlock(t)
						case 5:
							t.Yield()
						case 6:
							t.Fence(ord)
						case 7:
							mu.Lock(t)
							cv.Signal(t)
							mu.Unlock(t)
						case 8:
							t.Write(pw, []byte{byte(wid), byte(j)})
						case 9:
							if data, errno := t.Read(pr, 2); errno == 0 && len(data) == 2 {
								t.Printf("t%d piped %d.%d\n", wid, data[0], data[1])
							}
						}
					}
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
			mu.Lock(main)
			cv.Broadcast(main)
			mu.Unlock(main)
			main.Printf("final shared=%d a0=%d a1=%d\n",
				shared.Read(main), atoms[0].Load(main, SeqCst), atoms[1].Load(main, SeqCst))
		}
	}
}

func runRecorded(t *testing.T, strat demo.Strategy, cfg genConfig, seed uint64) *Report {
	t.Helper()
	rt := newTestRuntime(t, Options{
		Strategy: strat, Seed1: seed, Seed2: seed ^ 0xfeed,
		Record: true, ReportRaces: true,
	})
	rep, err := rt.Run(genProgram(cfg)(rt))
	if err != nil {
		t.Fatalf("record (strat %v, seed %d): %v", strat, seed, err)
	}
	return rep
}

func runReplayed(t *testing.T, strat demo.Strategy, cfg genConfig, d *demo.Demo) *Report {
	t.Helper()
	rt := newTestRuntime(t, Options{Strategy: strat, Replay: d, ReportRaces: true})
	rep, err := rt.Run(genProgram(cfg)(rt))
	if err != nil {
		t.Fatalf("replay (strat %v): %v", strat, err)
	}
	return rep
}

func TestPropertyRandomProgramsReplayExactly(t *testing.T) {
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue} {
		for seed := uint64(0); seed < 25; seed++ {
			cfg := genConfig{
				threads: 2 + int(seed%3),
				opsPer:  5 + int(seed%20),
				seed:    seed * 2654435761,
			}
			rec := runRecorded(t, strat, cfg, seed)
			rep := runReplayed(t, strat, cfg, rec.Demo)
			if rep.SoftDesync {
				t.Errorf("strat %v seed %d: soft desync", strat, seed)
			}
			if string(rep.Output) != string(rec.Output) {
				t.Errorf("strat %v seed %d: output %q != %q", strat, seed, rep.Output, rec.Output)
			}
			if rep.Ticks != rec.Ticks {
				t.Errorf("strat %v seed %d: ticks %d != %d", strat, seed, rep.Ticks, rec.Ticks)
			}
			if rep.RaceCount() != rec.RaceCount() {
				t.Errorf("strat %v seed %d: races %d != %d", strat, seed, rep.RaceCount(), rec.RaceCount())
			}
		}
	}
}

// TestPrintingProgramNeverSoftDesyncs: threads that print in the same
// parallel region emit in schedule order, not in physical arrival order,
// so strict replays of a long printing program match the recording's
// output and hash every time, under a physically ordered (queue) and a
// seed-ordered (random) strategy.
func TestPrintingProgramNeverSoftDesyncs(t *testing.T) {
	prog := repeatProgram(genConfig{threads: 3, opsPer: 60, seed: 97}, 30)
	for i := uint64(0); i < 24; i++ {
		strat := []demo.Strategy{demo.StrategyQueue, demo.StrategyRandom}[i%2]
		rt := newTestRuntime(t, Options{Strategy: strat, Seed1: i, Seed2: i ^ 0xfeed, Record: true})
		rec, err := rt.Run(prog(rt))
		if err != nil {
			t.Fatalf("record %d (strat %v): %v", i, strat, err)
		}
		rt = newTestRuntime(t, Options{Strategy: strat, Replay: rec.Demo})
		rep, err := rt.Run(prog(rt))
		if err != nil {
			t.Fatalf("replay %d (strat %v): %v", i, strat, err)
		}
		if rep.SoftDesync || string(rep.Output) != string(rec.Output) {
			t.Errorf("replay %d (strat %v): soft desync %v, output equal %v",
				i, strat, rep.SoftDesync, string(rep.Output) == string(rec.Output))
		}
	}
}

// TestPropertyDemoSurvivesSerialisation: the same equivalence holds after
// a demo round-trips through its binary encoding, as it would on disk.
func TestPropertyDemoSurvivesSerialisation(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		cfg := genConfig{threads: 3, opsPer: 12, seed: seed * 97}
		rec := runRecorded(t, demo.StrategyQueue, cfg, seed)
		decoded, err := demo.Decode(rec.Demo.Encode())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep := runReplayed(t, demo.StrategyQueue, cfg, decoded)
		if string(rep.Output) != string(rec.Output) || rep.Ticks != rec.Ticks {
			t.Errorf("seed %d: decoded-demo replay diverged", seed)
		}
	}
}

// TestReplayWithWrongStrategyRejected: a demo recorded under one strategy
// cannot be replayed under another.
func TestReplayWithWrongStrategyRejected(t *testing.T) {
	cfg := genConfig{threads: 2, opsPer: 5, seed: 1}
	rec := runRecorded(t, demo.StrategyQueue, cfg, 1)
	_, err := New(Options{Strategy: demo.StrategyRandom, Replay: rec.Demo})
	if err == nil {
		t.Fatal("cross-strategy replay accepted")
	}
}
