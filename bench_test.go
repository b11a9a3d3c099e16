package repro

// Benchmark harness: one benchmark family per table of the paper's
// evaluation (§5), plus the §5.2 demo-size study, the §5.5 limitation, the
// §4.2 strategy storage trade-off, and ablations for the design decisions
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the table's actual figure of merit: races/run for
// Table 1, queries/sec for Table 2, fps for Table 5, demo bytes/request
// for the storage studies. cmd/litmus, cmd/httpbench, cmd/parsecbench and
// cmd/gamebench print the same data as paper-style tables with more runs.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/apps/game"
	"repro/internal/apps/httpd"
	"repro/internal/apps/litmus"
	"repro/internal/apps/modes"
	"repro/internal/apps/parsec"
	"repro/internal/apps/pbzip"
	"repro/internal/apps/ptrapp"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/obs"
)

var table1Modes = []string{"tsan11", "tsan11+rr", "rnd", "queue"}

// BenchmarkTable1 regenerates Table 1: per-program, per-mode execution
// time (ns/op) and race rate (races/run).
func BenchmarkTable1(b *testing.B) {
	for _, p := range litmus.Programs {
		for _, mode := range table1Modes {
			b.Run(p.Name+"/"+mode, func(b *testing.B) {
				raced := 0
				for i := 0; i < b.N; i++ {
					opts, err := modes.Options(mode, uint64(i)*7919+13, true)
					if err != nil {
						b.Fatal(err)
					}
					res := litmus.RunOnce(p, opts)
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					if res.Races > 0 {
						raced++
					}
				}
				b.ReportMetric(float64(raced)/float64(b.N), "races/run")
			})
		}
	}
}

var table2Modes = []string{"native", "rr", "tsan11", "tsan11+rr", "rnd", "queue", "rnd+rec", "queue+rec"}

// BenchmarkTable2 regenerates Table 2: httpd-model throughput per mode.
// Each iteration serves a batch of queries; qps is the table's metric.
func BenchmarkTable2(b *testing.B) {
	const requests, concurrency = 200, 10
	cfg := httpd.DefaultConfig()
	for _, mode := range table2Modes {
		b.Run("httpd/"+mode, func(b *testing.B) {
			var served, races int
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				out := httpd.RunExperiment(cfg, mode, uint64(i)*31+7, true, requests, concurrency)
				if out.Err != nil {
					b.Fatal(out.Err)
				}
				served += out.Load.Completed
				races += out.Races()
				elapsed += out.Load.Duration
			}
			if elapsed > 0 {
				b.ReportMetric(float64(served)/elapsed.Seconds(), "queries/sec")
			}
			b.ReportMetric(float64(races)/float64(b.N), "races/run")
		})
	}
}

// BenchmarkTable2DemoSize regenerates the §5.2 storage study: demo bytes
// per request for both recording strategies.
func BenchmarkTable2DemoSize(b *testing.B) {
	const requests, concurrency = 200, 5
	cfg := httpd.DefaultConfig()
	for _, mode := range []string{"rnd+rec", "queue+rec"} {
		b.Run(mode, func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				out := httpd.RunExperiment(cfg, mode, uint64(i)+3, false, requests, concurrency)
				if out.Err != nil {
					b.Fatal(out.Err)
				}
				bytes += out.DemoBytes()
			}
			b.ReportMetric(float64(bytes)/float64(b.N*requests), "demo-bytes/request")
		})
	}
}

// BenchmarkTable3 regenerates Tables 3 and 4: PARSEC-model and pbzip
// execution time per configuration (ns/op is the Table 3 cell; Table 4 is
// the ratio to the native row).
func BenchmarkTable3(b *testing.B) {
	const threads = 4
	for _, kernel := range parsec.Benchmarks {
		for _, mode := range table2Modes {
			b.Run(kernel.Name+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts, err := modes.Options(mode, uint64(i)*17+3, false)
					if err != nil {
						b.Fatal(err)
					}
					if _, rep, err := parsec.RunOnce(kernel, opts, threads, 1); err != nil {
						b.Fatal(err)
					} else if rep.Err != nil {
						b.Fatal(rep.Err)
					}
				}
			})
		}
	}
	for _, mode := range table2Modes {
		b.Run("pbzip/"+mode, func(b *testing.B) {
			cfg := pbzip.DefaultConfig()
			cfg.Workers = threads
			for i := 0; i < b.N; i++ {
				opts, err := modes.Options(mode, uint64(i)*17+3, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, rep, err := pbzip.RunOnce(opts, cfg, 128<<10); err != nil {
					b.Fatal(err)
				} else if rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

// BenchmarkTable5 regenerates Table 5: uncapped frame rate of the game
// model per configuration (the fps metric is the table's cells).
func BenchmarkTable5(b *testing.B) {
	cfg := game.DefaultConfig()
	cfg.PlayNanos = int64(500 * time.Millisecond)
	srv := game.DefaultServerConfig()
	for _, mode := range []string{"native", "tsan11", "rnd", "queue", "rnd+rec", "queue+rec"} {
		b.Run("quakespasm-model/"+mode, func(b *testing.B) {
			var sum float64
			var n int
			for i := 0; i < b.N; i++ {
				out := game.Play(cfg, srv, mode, uint64(i)*13+5)
				if out.Err != nil {
					b.Fatal(out.Err)
				}
				for _, f := range out.FPS {
					sum += f
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(sum/float64(n), "fps")
			}
		})
	}
}

// BenchmarkSection54Bug regenerates the §5.4 experiment end to end:
// record networked play until the stale-state bug fires, then replay it.
// The metric reports how often the replayed bug reproduced (must be 1).
func BenchmarkSection54Bug(b *testing.B) {
	cfg := game.DefaultConfig()
	cfg.Network = true
	cfg.PlayNanos = int64(250 * time.Millisecond)
	srv := game.DefaultServerConfig()
	srv.Buggy = true
	srv.MapChangeEvery = 8
	srv.ExtraClients = 1
	reproduced := 0
	total := 0
	for i := 0; i < b.N; i++ {
		var rec game.Outcome
		for seed := uint64(1); seed < 10; seed++ {
			rec = game.PlayOpts(cfg, srv, core.Options{
				Strategy: demo.StrategyQueue, Seed1: seed + uint64(i)*97, Seed2: seed * 3,
				Record: true, Policy: core.PolicySparse,
			})
			if rec.Err != nil {
				b.Fatal(rec.Err)
			}
			if game.BugManifested(rec.Report.Output) {
				break
			}
		}
		if !game.BugManifested(rec.Report.Output) {
			continue
		}
		total++
		rep := game.Replay(cfg, rec.Report.Demo, core.PolicySparse)
		if rep.Err == nil && game.BugManifested(rep.Report.Output) {
			reproduced++
		}
	}
	if total > 0 {
		b.ReportMetric(float64(reproduced)/float64(total), "bug-reproduced")
	}
}

// BenchmarkSection55Layout regenerates the §5.5 limitation: replay desync
// rate with the randomised allocator versus the deterministic one.
func BenchmarkSection55Layout(b *testing.B) {
	for _, det := range []struct {
		name string
		on   bool
	}{{"randomised-layout", false}, {"deterministic-alloc", true}} {
		b.Run(det.name, func(b *testing.B) {
			desynced := 0
			for i := 0; i < b.N; i++ {
				rec := ptrapp.Record(ptrapp.DefaultConfig(), uint64(i)+1, det.on)
				if rec.Err != nil {
					b.Fatal(rec.Err)
				}
				rep := ptrapp.Replay(ptrapp.DefaultConfig(), rec.Report.Demo, det.on)
				if rep.Err != nil || (rep.Report != nil && rep.Report.SoftDesync) {
					desynced++
				}
			}
			b.ReportMetric(float64(desynced)/float64(b.N), "desync/run")
		})
	}
}

// BenchmarkDemoCost quantifies the §4.2 trade-off: the random strategy
// stores nothing per visible operation (two seeds total) while the queue
// strategy stores schedule data on every visible operation.
func BenchmarkDemoCost(b *testing.B) {
	program := func(rt *core.Runtime) func(*core.Thread) {
		return func(main *core.Thread) {
			x := main.NewAtomic64("x", 0)
			var hs []*core.Handle
			for w := 0; w < 4; w++ {
				hs = append(hs, main.Spawn("w", func(t *core.Thread) {
					for i := 0; i < 200; i++ {
						x.Add(t, 1, core.SeqCst)
					}
				}))
			}
			for _, h := range hs {
				main.Join(h)
			}
		}
	}
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue} {
		b.Run(strat.String(), func(b *testing.B) {
			var bytes, ticks int
			for i := 0; i < b.N; i++ {
				rt, err := core.New(core.Options{
					Strategy: strat, Seed1: uint64(i) + 1, Seed2: 2, Record: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := rt.Run(program(rt))
				if err != nil {
					b.Fatal(err)
				}
				bytes += rep.Demo.Size()
				ticks += int(rep.Ticks)
			}
			b.ReportMetric(float64(bytes)/float64(ticks), "demo-bytes/op")
		})
	}
}

// BenchmarkAblationSequentialise isolates the cost DESIGN.md's first
// starred decision avoids: serialising invisible regions (the rr execution
// model) versus serialising only visible operations.
func BenchmarkAblationSequentialise(b *testing.B) {
	kernel, _ := parsec.ByName("blackscholes")
	for _, seq := range []struct {
		name string
		on   bool
	}{{"visible-ops-only", false}, {"sequentialise-all", true}} {
		b.Run(seq.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{
					Strategy: demo.StrategyQueue,
					Seed1:    uint64(i) + 1, Seed2: 2,
					Sequentialize: seq.on,
				}
				if _, rep, err := parsec.RunOnce(kernel, opts, 4, 1); err != nil {
					b.Fatal(err)
				} else if rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

// BenchmarkAblationHistoryDepth varies the atomic store-history bound: a
// depth of 1 disables stale reads entirely (plain-tsan value semantics)
// and measures what the weak-memory machinery costs.
func BenchmarkAblationHistoryDepth(b *testing.B) {
	p, _ := litmus.ByName("ms-queue")
	for _, depth := range []int{1, 4, 8, 32} {
		b.Run(depthName(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := litmus.RunOnce(p, core.Options{
					Strategy: demo.StrategyRandom,
					Seed1:    uint64(i) + 1, Seed2: 7,
					ReportRaces:  true,
					HistoryDepth: depth,
				})
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

func depthName(d int) string {
	switch d {
	case 1:
		return "depth-1"
	case 4:
		return "depth-4"
	case 8:
		return "depth-8"
	default:
		return "depth-32"
	}
}

// BenchmarkSchedulerOverhead measures the raw cost of one critical section
// (Wait + Tick + race-detector update), the per-visible-op price of the
// whole approach.
func BenchmarkSchedulerOverhead(b *testing.B) {
	for _, strat := range []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue, demo.StrategyPCT} {
		b.Run(strat.String(), func(b *testing.B) {
			rt, err := core.New(core.Options{
				Strategy: strat, Seed1: 1, Seed2: 2,
				MaxTicks: uint64(b.N) + 1000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Run(func(main *core.Thread) {
				x := main.NewAtomic64("x", 0)
				for i := 0; i < b.N; i++ {
					x.Store(main, uint64(i), core.Relaxed)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkVisibleOpThreads measures how the cost of one visible operation
// scales with the number of live-but-blocked threads. n-1 threads park on a
// mutex the main thread holds, so every main-thread Tick happens while n-1
// goroutines sit in Wait: with a global-broadcast wakeup each Tick pays
// O(n) futile wakeups (and the queue strategy's decision scan pays O(n)
// again); with directed parking and the split runnable queue the per-op
// cost must stay flat from 2 threads to 10240 (the scaling acceptance bar:
// the 10240-thread point within 2x of the 128-thread one). The op is a
// bare Yield so the number is the scheduling protocol itself, not the
// race-detector work a data operation adds on top. SpawnDelay is disabled
// at the large counts — 10k modelled pthread_creates would dominate setup
// — and MaxThreads lifts the default thread budget.
func BenchmarkVisibleOpThreads(b *testing.B) {
	for _, n := range []int{2, 4, 8, 32, 128, 1024, 10240} {
		b.Run(fmt.Sprintf("threads-%d", n), func(b *testing.B) {
			rt, err := core.New(core.Options{
				Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2,
				MaxTicks:   uint64(b.N) + uint64(n)*16 + 4096,
				MaxThreads: n + 1,
				SpawnDelay: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Run(func(main *core.Thread) {
				gate := rt.NewMutex("gate")
				gate.Lock(main)
				hs := make([]*core.Handle, 0, n-1)
				for i := 0; i < n-1; i++ {
					hs = append(hs, main.Spawn("parked", func(t *core.Thread) {
						gate.Lock(t)
						gate.Unlock(t)
					}))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					main.Yield()
				}
				b.StopTimer()
				gate.Unlock(main)
				for _, h := range hs {
					main.Join(h)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRecordStreaming measures what the crash-safe streaming writer
// adds to the record path. The hotpath sub-benchmark drives NoteSchedule
// directly against a disk-backed recorder while the background flusher
// runs at a production cadence: the steady state must stay zero-alloc,
// because every allocation here is paid inside the scheduler's critical
// section on every visible operation. The workload sub-benchmarks run the
// same litmus program with recording off, in-memory, and streamed — the
// end-to-end price of durability is the stream/memory delta.
func BenchmarkRecordStreaming(b *testing.B) {
	b.Run("hotpath", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.demo2")
		r, err := demo.NewFileRecorder(path, demo.StrategyQueue, 1, 2, 2*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the spool windows past steady-state size so growth
		// allocations land before the measurement starts.
		const warm = 1 << 16
		for i := 0; i < warm; i++ {
			r.NoteSchedule(int32(i%4), uint64(i+1))
		}
		if err := r.Flush(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.NoteSchedule(int32(i%4), uint64(warm+i+1))
		}
		b.StopTimer()
		if _, err := r.Close(uint64(warm + b.N)); err != nil {
			b.Fatal(err)
		}
	})

	p, _ := litmus.ByName("ms-queue")
	workload := func(b *testing.B, opts func(i int) core.Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if res := litmus.RunOnce(p, opts(i)); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.Run("workload/no-record", func(b *testing.B) {
		workload(b, func(i int) core.Options {
			return core.Options{Strategy: demo.StrategyQueue, Seed1: uint64(i) + 1, Seed2: 2}
		})
	})
	b.Run("workload/record-memory", func(b *testing.B) {
		workload(b, func(i int) core.Options {
			return core.Options{Strategy: demo.StrategyQueue, Seed1: uint64(i) + 1, Seed2: 2, Record: true}
		})
	})
	b.Run("workload/record-stream", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.demo2")
		workload(b, func(i int) core.Options {
			return core.Options{
				Strategy: demo.StrategyQueue, Seed1: uint64(i) + 1, Seed2: 2,
				Record: true, RecordPath: path,
			}
		})
	})
}

// obsBenchOps is how many visible operations each observability benchmark
// run performs (yields across two threads, plus the protocol's own ops).
const obsBenchOps = 4000

func runObsYields(b *testing.B, tr *obs.Tracer, mx *obs.Metrics) uint64 {
	b.Helper()
	rt, err := core.New(core.Options{
		Strategy: demo.StrategyQueue, Seed1: 1, Seed2: 2,
		MaxTicks: 10_000_000,
		Trace:    tr, Metrics: mx,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := rt.Run(func(main *core.Thread) {
		h := main.Spawn("peer", func(t *core.Thread) {
			for i := 0; i < obsBenchOps/2; i++ {
				t.Yield()
			}
		})
		for i := 0; i < obsBenchOps/2; i++ {
			main.Yield()
		}
		main.Join(h)
	})
	if err != nil {
		b.Fatal(err)
	}
	return rep.Ticks
}

func benchObsVisibleOps(b *testing.B, tr *obs.Tracer, mx *obs.Metrics) {
	var ticks uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ticks = runObsYields(b, tr, mx)
	}
	b.StopTimer()
	if ticks > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ticks), "ns/visible-op")
	}
}

// BenchmarkObsDisabled measures the per-visible-op cost of the
// observability hot path when it is compiled in but off. The delta of
// "tracer-disabled" over "no-obs" is the price every production run pays
// for the layer's existence — one nil check at runtime construction and
// one atomic load per op, a few ns, within the scheduling protocol's own
// noise.
func BenchmarkObsDisabled(b *testing.B) {
	b.Run("no-obs", func(b *testing.B) {
		benchObsVisibleOps(b, nil, nil)
	})
	b.Run("tracer-disabled", func(b *testing.B) {
		tr := obs.NewTracer(obs.DefaultTracerSize)
		tr.Disable()
		benchObsVisibleOps(b, tr, nil)
	})
}

// BenchmarkObsEnabled is the comparison point with the ring and metrics
// hot: every visible op emits a trace event and bumps a kind counter.
func BenchmarkObsEnabled(b *testing.B) {
	tr := obs.NewTracer(obs.DefaultTracerSize)
	mx := obs.NewMetrics()
	benchObsVisibleOps(b, tr, mx)
}
