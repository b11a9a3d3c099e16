package core

import (
	"os"
	"testing"

	"repro/internal/demo"
)

// fastTrackCompatProgram is the fixed program behind the detector-hot-path
// compatibility demo. It deliberately walks every detector code path whose
// cost the FastTrack-style rewrite changed: relaxed loads that draw from
// the PRNG to pick a stale store, release and seq_cst stores (clock
// snapshots), an RMW continuing a release sequence, release/acquire fences
// (the fence-snapshot path), mutex hand-offs (release edges), same-thread
// and cross-thread Var accesses (the epoch read-shadow fast path and its
// escalation to a full read clock), plus one deliberate data race so race
// reporting is pinned too.
//
// The recording at testdata/pre-fasttrack.demo was made with the detector
// as it was before the epoch-shadow/copy-on-write-snapshot rewrite (commit
// 0cf6625), under the random strategy, whose replay re-derives every
// scheduling decision from the shared PRNG. Any change to the number or
// order of detector PRNG draws, or to a tick count, desynchronises the
// replay — so this program replaying cleanly is the proof that the
// optimisation preserved the draw sequence bit for bit.
func fastTrackCompatProgram(rt *Runtime) func(*Thread) {
	return func(main *Thread) {
		x := main.NewAtomic64("c.x", 0)
		y := main.NewAtomic64("c.y", 0)
		ordered := NewVar(rt, "c.ordered", 0)
		racy := NewVar(rt, "c.racy", 0)
		mu := rt.NewMutex("c.mu")

		var hs []*Handle
		for w := 0; w < 4; w++ {
			wid := w
			hs = append(hs, main.Spawn("compat", func(t *Thread) {
				for j := 0; j < 12; j++ {
					switch (wid + j) % 6 {
					case 0:
						// Release store after mutex-protected write: the
						// snapshot taken here is what acquire loads join.
						mu.Lock(t)
						ordered.Update(t, func(v int) int { return v + 1 })
						mu.Unlock(t)
						x.Store(t, uint64(wid*100+j), Release)
					case 1:
						// Relaxed load: a PRNG draw whenever the history
						// holds more than one visible store.
						if x.Load(t, Relaxed)%2 == 0 {
							y.Add(t, 1, AcqRel)
						}
					case 2:
						// Release fence then relaxed store: the store
						// carries the fence snapshot.
						t.Fence(Release)
						y.Store(t, uint64(j), Relaxed)
					case 3:
						// Acquire side: relaxed load then acquire fence
						// claims pending release clocks.
						_ = y.Load(t, Relaxed)
						t.Fence(Acquire)
					case 4:
						// RMW on the release store continues its release
						// sequence; CAS exercises the failed-load path.
						x.Add(t, 1, Relaxed)
						x.CompareExchange(t, uint64(j), uint64(wid), SeqCst, Relaxed)
					case 5:
						// Unsynchronised accesses: wid 0 and 2 race on
						// purpose; everyone reads, so the read shadow
						// escalates across threads.
						if wid != 1 {
							racy.Write(t, wid)
						}
						_ = racy.Read(t)
					}
				}
			}))
		}
		for _, h := range hs {
			main.Join(h)
		}
		main.Printf("final x=%d y=%d ordered=%d\n",
			x.Load(main, SeqCst), y.Load(main, SeqCst), ordered.Read(main))
	}
}

const (
	preFastTrackDemoFile   = "testdata/pre-fasttrack.demo"
	preFastTrackOutputFile = "testdata/pre-fasttrack.output"
	preFastTrackRacesFile  = "testdata/pre-fasttrack.races"
)

func racesText(rep *Report) string {
	var out string
	for _, r := range rep.Races {
		out += r.String() + "\n"
	}
	return out
}

// TestReplayPreFastTrackDemo replays the checked-in pre-rewrite recording.
// The rewrite changed how the detector represents read shadows, release
// clocks and per-location coherence state, but must not change a single
// PRNG draw or race report: the old recording has to drive a fully
// synchronised replay with identical output and race count.
func TestReplayPreFastTrackDemo(t *testing.T) {
	d, err := demo.ReadFile(preFastTrackDemoFile)
	if err != nil {
		t.Fatalf("read of pre-change demo: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("pre-change demo no longer validates: %v", err)
	}
	wantOut, err := os.ReadFile(preFastTrackOutputFile)
	if err != nil {
		t.Fatalf("read of recorded output: %v", err)
	}
	rt := newTestRuntime(t, ReplayOptions(d))
	rep, err := rt.Run(fastTrackCompatProgram(rt))
	if err != nil {
		t.Fatalf("replay of pre-change demo desynchronised: %v", err)
	}
	if rep.SoftDesync {
		t.Error("replay soft-desynchronised")
	}
	if rep.Ticks != d.FinalTick {
		t.Errorf("replay ran %d ticks, recording has %d", rep.Ticks, d.FinalTick)
	}
	if string(rep.Output) != string(wantOut) {
		t.Errorf("replay output %q, recording produced %q", rep.Output, wantOut)
	}
	// The race reports — every one a deliberate c.racy race — must match
	// the recording verbatim: same locations, threads, epochs, kinds, and
	// report order.
	wantRaces, err := os.ReadFile(preFastTrackRacesFile)
	if err != nil {
		t.Fatalf("read of recorded races: %v", err)
	}
	if got := racesText(rep); got != string(wantRaces) {
		t.Errorf("replay races:\n%srecording detected:\n%s", got, wantRaces)
	}
	for _, r := range rep.Races {
		if r.Location != "c.racy" {
			t.Errorf("race on %s, want c.racy only", r.Location)
		}
	}
}

// TestRecordPreFastTrackDemo regenerates the compatibility fixtures. It is
// a no-op unless TSANREC_RECORD_COMPAT_DEMO=1: the fixtures must be
// recorded at a commit BEFORE the detector change under test, then carried
// forward unchanged — regenerating them after the change would make the
// compatibility claim vacuous.
func TestRecordPreFastTrackDemo(t *testing.T) {
	if os.Getenv("TSANREC_RECORD_COMPAT_DEMO") != "1" {
		t.Skip("set TSANREC_RECORD_COMPAT_DEMO=1 to regenerate the compat fixtures")
	}
	rt := newTestRuntime(t, RecordOptions(demo.StrategyRandom, 11, 47))
	rep, err := rt.Run(fastTrackCompatProgram(rt))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if rep.RaceCount() == 0 {
		t.Fatal("recording detected no races; the fixture must pin race reporting")
	}
	for _, r := range rep.Races {
		if r.Location != "c.racy" {
			t.Fatalf("unexpected race on %s: only c.racy may race", r.Location)
		}
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := rep.Demo.WriteFile(preFastTrackDemoFile); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(preFastTrackOutputFile, rep.Output, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(preFastTrackRacesFile, []byte(racesText(rep)), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d ticks, %d races, output %q", rep.Ticks, rep.RaceCount(), rep.Output)
}
