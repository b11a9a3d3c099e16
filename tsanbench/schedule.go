package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/prng"
	"repro/internal/stats"
)

// arrival is one connection of the open-loop load: it is due gap of
// virtual time after the previous one and requests the Zipf-ranked path
// rank.
type arrival struct {
	gap  time.Duration
	rank int
}

// scheduleSpec shapes the netload arrival process.
type scheduleSpec struct {
	conns    int
	meanGap  time.Duration // mean virtual inter-arrival time (Poisson process)
	paths    int           // Zipf path population
	pathSkew float64
}

// newSchedule draws a whole arrival schedule up front, as a pure function
// of (seed, round, spec). The program under test never sees the seed, only
// the arrivals.
func newSchedule(seed uint64, round int, spec scheduleSpec) []arrival {
	src := prng.New(prng.Derive(seed, uint64(round)))
	gap := stats.Exponential{Mean: float64(spec.meanGap)}
	zipf := stats.NewZipf(spec.paths, spec.pathSkew)
	arr := make([]arrival, spec.conns)
	for i := range arr {
		arr[i] = arrival{gap: time.Duration(gap.Sample(src.Uint64())), rank: zipf.Sample(src.Uint64())}
	}
	return arr
}

// scheduleDigest fingerprints schedules, so two runs can show they offered
// the same input.
func scheduleDigest(rounds ...[]arrival) string {
	h := fnv.New64a()
	var buf [16]byte
	for _, arr := range rounds {
		for _, a := range arr {
			binary.LittleEndian.PutUint64(buf[:8], uint64(a.gap))
			binary.LittleEndian.PutUint64(buf[8:], uint64(a.rank))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
