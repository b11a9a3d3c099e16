//tsanrec:external load generator and benchmark harness: the external world offering traffic, timed by the wall clock
package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/apps/modes"
	"repro/internal/apps/netload"
	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/env"
	"repro/internal/prng"
)

// The netload workload: the epoll server with 4 workers under queue+rec,
// recording with the demo streamed to a file, driven by an open-loop
// Poisson arrival process in virtual time; each round then strict-replays
// the file. Unit of work: one answered connection.
var netloadSpec = scheduleSpec{conns: 1000, meanGap: 1200 * time.Millisecond, paths: 100, pathSkew: 1.0}

const (
	replayReps = 4 // strict replays of each recording
	reqTimeout = 30 * time.Second
)

func runNetload(p *pass) *outcome {
	o := &outcome{layer: newLayer(), aliases: map[string]string{
		"throughput_per_s": "conns_per_s", "demo_bytes_per_unit": "demo_bytes_per_conn",
	}}
	s := samples{}
	var first [][]arrival
	start := time.Now()
	rounds := 0
	for ; rounds < minRounds || time.Since(start) < p.budget; rounds++ {
		arr := netloadRound(p, rounds, o, s)
		if rounds < minRounds {
			first = append(first, arr)
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("netload schedule digest (rounds 0-%d, %d conns each): %s",
		minRounds-1, netloadSpec.conns, scheduleDigest(first...)))
	if p.traced() {
		s.mediansInto(o.layer)
		addCounters(o.layer, p.mx, rounds)
		s.percentilesInto(o.layer, "env.vsleep_wall_us")
		s.percentilesInto(o.layer, "env.req_ms")
	}
	return o
}

// netloadSetupSamples is how many setup_s samples each round times.
const netloadSetupSamples = 2

// newNetloadRun is one round's set-up: the arrival schedule, a World with
// virtual time, and a queue+rec Runtime attached to it that streams its
// recording to path, or records in memory if path is "". It also returns
// how long core.New took. The caller shuts the World down.
func newNetloadRun(p *pass, round int, path string) ([]arrival, *env.World, *core.Runtime, time.Duration, error) {
	arr := newSchedule(p.seed, round, netloadSpec)
	world := env.NewWorld(p.seed)
	world.EnableVirtualTime(0)
	runSeed, _ := prng.Derive(p.seed^0x6e65746c6f6164, uint64(round))
	opts, err := modes.Options("queue+rec", runSeed, true)
	if err != nil {
		panic(err) // a fixed, known mode name
	}
	opts.RecordPath = path
	opts.World = world
	opts.WallTimeout = 120 * time.Second
	opts.MaxTicks = 500_000_000
	opts.Trace, opts.Metrics = p.tr, p.mx
	t0 := time.Now()
	rt, err := core.New(opts)
	return arr, world, rt, time.Since(t0), err
}

// netloadRound records one schedule against the server, strict-replays the
// streamed file and checks both. It returns the schedule it offered.
func netloadRound(p *pass, round int, o *outcome, s samples) []arrival {
	// setup_s leaves out creating the demo file, whose cost is the disk's:
	// the timed set-ups record in memory, and a Runtime that never runs
	// holds nothing but memory once its World is shut down.
	o.timeSetups(netloadSetupSamples, func(int) time.Duration {
		t0 := time.Now()
		_, world, _, newDur, _ := newNetloadRun(p, round, "")
		d := time.Since(t0)
		world.Shutdown()
		if p.traced() {
			s.add("core.new_us", float64(newDur)/float64(time.Microsecond))
		}
		return d
	})

	path := p.scratchFile("netload-%d.demo2", round)
	arr, world, rt, newDur, err := newNetloadRun(p, round, path)
	if err != nil {
		world.Shutdown()
		o.check(false, "netload round %d: core.New: %v", round, err)
		return arr
	}
	cfg := netload.DefaultConfig()

	type runOut struct {
		rep *core.Report
		err error
		dur time.Duration
	}
	done := make(chan runOut, 1)
	go func() {
		t := time.Now()
		rep, err := rt.Run(netload.Server(rt, cfg))
		done <- runOut{rep, err, time.Since(t)}
	}()
	ld := drive(world, cfg.Port, arr)
	world.Kill(netload.SigTerm)
	out := <-done // bounded by opts.WallTimeout

	o.attempted += len(arr)
	if ld.ok < len(arr) {
		o.fail(len(arr)-ld.ok, "netload round %d: %d of %d connections not answered (first error: %v)",
			round, len(arr)-ld.ok, len(arr), ld.firstErr)
	}
	o.check(out.err == nil, "netload round %d: record run: %v", round, out.err)
	if out.err != nil {
		return arr
	}
	o.rate.Add(float64(ld.ok) / ld.wall.Seconds())
	var fileBytes int64
	if fi, err := os.Stat(path); err == nil {
		fileBytes = fi.Size()
	}
	o.demoBytes.Add(float64(fileBytes) / float64(len(arr)))

	rcfg := cfg
	rcfg.Trace = p.tr // replays stay out of the counters, which are per recorded run
	for r := 0; r < replayReps; r++ {
		tRead := time.Now()
		d, err := demo.ReadFile(path)
		read := time.Since(tRead)
		if err != nil {
			o.check(false, "netload round %d: reading demo: %v", round, err)
			return arr
		}
		rout := netload.Replay(rcfg, d, true)
		o.replay.Add(time.Since(tRead).Seconds())
		msg := replayMatches(rout.Report, rout.Err, out.rep)
		o.check(msg == "", "netload round %d: replay: %s", round, msg)
		if p.traced() {
			s.add("demo.read_ms", float64(read)/float64(time.Millisecond))
			if rout.Report != nil {
				s.add("tsan.races.replay", float64(rout.Report.RaceCount()))
			}
			if r == 0 {
				s.addDemo(d)
			}
		}
	}

	if p.traced() {
		s.add("demo.stream_new_us", float64(newDur)/float64(time.Microsecond))
		addRun(s, out.dur, out.rep)
		s.add("tsan.races.record", float64(out.rep.RaceCount()))
		s.add("demo.file_bytes", float64(fileBytes))
		s.add("env.virtual_s", ld.virtual.Seconds())
		s.add("env.compression_x", ld.virtual.Seconds()/ld.wall.Seconds())
		for _, v := range ld.vsleep {
			s.add("env.vsleep_wall_us", v)
		}
		for _, v := range ld.req {
			s.add("env.req_ms", v)
		}
	}
	return arr
}

// replayMatches checks a strict replay against its recording: no error,
// no soft desync, the same tick count and the same race set. It returns
// "" when they match.
func replayMatches(replay *core.Report, err error, rec *core.Report) string {
	switch {
	case err != nil:
		return err.Error()
	case replay == nil:
		return "no report"
	case replay.Err != nil:
		return replay.Err.Error()
	case replay.SoftDesync:
		return "soft desync"
	case replay.Ticks != rec.Ticks:
		return fmt.Sprintf("replayed %d ticks, recorded %d", replay.Ticks, rec.Ticks)
	case !slices.Equal(raceSet(replay), raceSet(rec)):
		return fmt.Sprintf("races only in the replay %v, only in the recording %v",
			missing(raceSet(replay), raceSet(rec)), missing(raceSet(rec), raceSet(replay)))
	}
	return ""
}

// raceSet is the set of locations a report found racy, the race set a
// strict replay must reproduce. Which racing pairs of accesses the detector
// reports on a location, and so how many reports there are, is not fixed
// by the schedule: the invisible accesses between two visible operations
// run in parallel, and their physical order decides which access the
// shadow state remembers. A slowed-down build (go build -race) shows
// replays reporting other pairs on the same locations. Whether a location
// has a race at all depends only on happens-before, which the recorded
// schedule fixes.
func raceSet(rep *core.Report) []string {
	var locs []string
	for _, r := range rep.Races {
		locs = append(locs, r.Location)
	}
	slices.Sort(locs)
	return slices.Compact(locs)
}

// missing returns the elements of a that b lacks.
func missing(a, b []string) []string {
	var out []string
	for _, x := range a {
		if !slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

// loadStats is what the load generator observed in one round.
type loadStats struct {
	ok       int
	firstErr error
	wall     time.Duration // first sleep to last response
	virtual  time.Duration // virtual time the schedule covered
	vsleep   []float64     // wall µs each SleepVirtual blocked
	req      []float64     // ms from each timer firing to its 200 response
}

// drive offers the schedule open-loop through env's external API: the
// generator sleeps each gap in virtual time, then starts that arrival's
// client without waiting for earlier ones to finish.
func drive(w *env.World, port int, arr []arrival) loadStats {
	var ls loadStats
	reqDur := make([]time.Duration, len(arr))
	errs := make([]error, len(arr))
	var wg sync.WaitGroup
	start := time.Now()
	v0 := w.VirtualNow()
	for i, a := range arr {
		ts := time.Now()
		if err := w.SleepVirtual(a.gap); err != nil {
			for j := i; j < len(arr); j++ {
				errs[j] = err
			}
			break
		}
		ls.vsleep = append(ls.vsleep, float64(time.Since(ts))/float64(time.Microsecond))
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			fired := time.Now()
			errs[i] = request(w, port, rank)
			reqDur[i] = time.Since(fired)
		}(i, a.rank)
	}
	wg.Wait()
	ls.wall = time.Since(start)
	ls.virtual = time.Duration(w.VirtualNow() - v0)
	for i, err := range errs {
		if err != nil {
			if ls.firstErr == nil {
				ls.firstErr = err
			}
			continue
		}
		ls.ok++
		ls.req = append(ls.req, float64(reqDur[i])/float64(time.Millisecond))
	}
	return ls
}

// request is one external client: connect, send one GET, and require the
// exact 200 answer for the path it asked for.
func request(w *env.World, port, rank int) error {
	conn, err := w.ExternalConnect(port, reqTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	path := "/item" + strconv.Itoa(rank)
	if err := conn.Send([]byte("GET " + path + "\n")); err != nil {
		return err
	}
	deadline := time.Now().Add(reqTimeout)
	var resp []byte
	for !bytes.Contains(resp, []byte("\n")) {
		chunk, err := conn.Recv(512, time.Until(deadline))
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		resp = append(resp, chunk...)
	}
	if want := "200 ok " + path + "\n"; string(resp) != want {
		return fmt.Errorf("response %q, want %q", resp, want)
	}
	return nil
}
