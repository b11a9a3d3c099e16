package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/demo"
)

// Streaming-record equivalence and crash recovery: record a run through
// the streaming writer, then replay both the complete file and prefixes
// cut at arbitrary byte offsets (simulating a kill mid-write). Every
// recoverable prefix must replay synchronised — no hard desync, no soft
// desync, output a prefix of the full run's output.

// repeatProgram runs the generated program body reps times inside one
// execution, stretching the run past several background flush intervals.
// Each iteration builds fresh vars, so it is as re-runnable as the
// original (replay requires the identical program).
func repeatProgram(cfg genConfig, reps int) func(rt *Runtime) func(*Thread) {
	return func(rt *Runtime) func(*Thread) {
		inner := genProgram(cfg)(rt)
		return func(main *Thread) {
			for i := 0; i < reps; i++ {
				inner(main)
			}
		}
	}
}

func recordStreamed(t *testing.T, prog func(rt *Runtime) func(*Thread), seed uint64) (*Report, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.demo2")
	rt := newTestRuntime(t, Options{
		Strategy: demo.StrategyQueue, Seed1: seed, Seed2: seed ^ 0xfeed,
		Record: true, ReportRaces: true,
		RecordPath:          path,
		RecordFlushInterval: time.Millisecond,
	})
	rep, err := rt.Run(prog(rt))
	if err != nil {
		t.Fatalf("streamed record (seed %d): %v", seed, err)
	}
	return rep, path
}

func TestStreamingRecordReplaysExactly(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		cfg := genConfig{threads: 2 + int(seed%3), opsPer: 8 + int(seed%12), seed: seed * 2654435761}
		rec, path := recordStreamed(t, genProgram(cfg), seed)
		if rec.Demo == nil {
			t.Fatalf("seed %d: no demo read back", seed)
		}
		if rec.DemoPath != path {
			t.Fatalf("seed %d: DemoPath %q", seed, rec.DemoPath)
		}
		if rec.Demo.Truncated {
			t.Fatalf("seed %d: complete recording marked truncated", seed)
		}
		rep := runReplayed(t, demo.StrategyQueue, cfg, rec.Demo)
		if rep.SoftDesync || string(rep.Output) != string(rec.Output) || rep.Ticks != rec.Ticks {
			t.Errorf("seed %d: streamed-demo replay diverged (soft=%v ticks %d/%d)",
				seed, rep.SoftDesync, rep.Ticks, rec.Ticks)
		}
		if rep.RaceCount() != rec.RaceCount() {
			t.Errorf("seed %d: races %d != %d", seed, rep.RaceCount(), rec.RaceCount())
		}
	}
}

// sinkProgram runs three workers that exchange data through a pipe (the
// recorded syscalls) under a mutex, while main takes a signal and prints.
// Only main prints: output from threads racing in one parallel region is
// hashed in physical arrival order (see the soft-desync item in
// ROADMAP.md), which the property tests already exercise.
func sinkProgram(rt *Runtime) func(*Thread) {
	return func(main *Thread) {
		main.Signal(10, func(h *Thread, sig int32) { h.Printf("sig %d\n", sig) })
		mu := rt.NewMutex("s.mu")
		sum := NewVar(rt, "s.sum", 0)
		pr, pw := main.Pipe()
		var hs []*Handle
		for w := 0; w < 3; w++ {
			hs = append(hs, main.Spawn(fmt.Sprintf("s%d", w), func(t *Thread) {
				for i := 0; i < 20; i++ {
					t.Write(pw, []byte{byte(w), byte(i)})
					if data, errno := t.Read(pr, 2); errno == 0 && len(data) == 2 {
						mu.Lock(t)
						sum.Update(t, func(v int) int { return v + int(data[0])*100 + int(data[1]) })
						mu.Unlock(t)
					}
					t.Yield()
				}
			}))
		}
		main.Raise(10)
		for _, h := range hs {
			main.Join(h)
		}
		main.Printf("sum=%d\n", sum.Read(main))
	}
}

// TestFileAndMemorySinksAgree: the same fixed-seed run recorded into memory
// and into a file yields one Demo — deeply equal, with byte-identical v1
// encodings — and both strict-replay, under every strategy. Two runs
// only record the same execution if nothing physical decides it: the
// wall-clock liveness reschedule is off, and the queue strategy (which
// follows physical arrival order) gets a spawn delay long enough that
// each child runs until it settles before its parent continues.
func TestFileAndMemorySinksAgree(t *testing.T) {
	strategies := []demo.Strategy{demo.StrategyRandom, demo.StrategyQueue, demo.StrategyPCT, demo.StrategyDelay}
	for _, strat := range strategies {
		record := func(path string) *Report {
			opts := Options{Strategy: strat, Seed1: 5, Seed2: 6, Record: true, RecordPath: path,
				RescheduleQuantum: -1, SpawnDelay: time.Minute}
			if path != "" {
				opts.RecordFlushInterval = time.Millisecond
			}
			rt := newTestRuntime(t, opts)
			rep, err := rt.Run(sinkProgram(rt))
			if err != nil {
				t.Fatalf("%v record (path %q): %v", strat, path, err)
			}
			return rep
		}
		mem := record("")
		file := record(filepath.Join(t.TempDir(), "run.demo2"))
		if len(mem.Demo.Syscalls) == 0 || len(mem.Demo.Signals) == 0 || len(mem.Output) == 0 {
			t.Fatalf("%v: recording lacks syscalls, signals or output: %+v", strat, mem.Demo)
		}
		if !reflect.DeepEqual(mem.Demo, file.Demo) {
			t.Fatalf("%v: memory and file demos differ:\nmemory %+v\nfile   %+v", strat, mem.Demo, file.Demo)
		}
		if !bytes.Equal(mem.Demo.Encode(), file.Demo.Encode()) {
			t.Fatalf("%v: v1 encodings differ", strat)
		}
		for _, rec := range []*Report{mem, file} {
			rt := newTestRuntime(t, Options{Strategy: strat, Replay: rec.Demo})
			rep, err := rt.Run(sinkProgram(rt))
			if err != nil {
				t.Fatalf("%v replay (path %q): %v", strat, rec.DemoPath, err)
			}
			if rep.SoftDesync || !bytes.Equal(rep.Output, rec.Output) || rep.Ticks != rec.Ticks {
				t.Errorf("%v replay (path %q) diverged (soft=%v ticks %d/%d)",
					strat, rec.DemoPath, rep.SoftDesync, rep.Ticks, rec.Ticks)
			}
		}
	}
}

func TestCrashRecoveryPropertyReplaysPrefix(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		// Long enough (tens of ms) that several background flush batches
		// land before Close, so cuts inside the file find footers.
		cfg := genConfig{threads: 3, opsPer: 60, seed: seed * 97}
		prog := repeatProgram(cfg, 30)
		rec, path := recordStreamed(t, prog, seed)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		recovered := 0
		// Cut at a spread of byte offsets, including just shy of EOF (mid
		// final footer) — each models the file a SIGKILL leaves behind.
		cuts := []int{len(data) - 1, len(data) - 7}
		for c := len(data) / 8; c < len(data); c += len(data) / 8 {
			cuts = append(cuts, c)
		}
		for _, cut := range cuts {
			if cut <= 0 || cut > len(data) {
				continue
			}
			d, err := demo.RecoverBytes(data[:cut])
			if err != nil {
				continue // cut before the first footer: nothing recoverable
			}
			recovered++
			if !d.Truncated {
				t.Fatalf("seed %d cut %d: torn prefix not marked truncated", seed, cut)
			}
			rt := newTestRuntime(t, Options{Strategy: demo.StrategyQueue, Replay: d, ReportRaces: true})
			rep, err := rt.Run(prog(rt))
			if err != nil {
				t.Fatalf("seed %d cut %d: recovered replay failed: %v", seed, cut, err)
			}
			if rep.SoftDesync {
				t.Errorf("seed %d cut %d: soft desync on recovered prefix", seed, cut)
			}
			if rep.Ticks != d.FinalTick {
				t.Errorf("seed %d cut %d: replay ran %d ticks, prefix ends at %d", seed, cut, rep.Ticks, d.FinalTick)
			}
			if !strings.HasPrefix(string(rec.Output), string(rep.Output)) {
				t.Errorf("seed %d cut %d: replay output is not a prefix of the recording's", seed, cut)
			}
		}
		if recovered == 0 {
			t.Fatalf("seed %d: no cut was recoverable; flush cadence broken?", seed)
		}
	}
}

// TestRecordPathValidation: the option plumbing fails loudly when misused.
func TestRecordPathValidation(t *testing.T) {
	if _, err := New(Options{Strategy: demo.StrategyQueue, RecordPath: "x.demo2"}); err == nil {
		t.Fatal("RecordPath without Record accepted")
	}
	if _, err := New(Options{Strategy: demo.StrategyQueue, Record: true, RecordFlushInterval: time.Second}); err == nil {
		t.Fatal("RecordFlushInterval without RecordPath accepted")
	}
	if _, err := New(Options{Strategy: demo.StrategyQueue, Record: true, RecordPath: "/nonexistent-dir/x.demo2"}); err == nil {
		t.Fatal("unwritable RecordPath accepted")
	}
}
