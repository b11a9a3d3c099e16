// Package demo implements the paper's "demo" files: the captured record of
// an execution's relevant nondeterminism that constrains a later replay.
//
// A demo is a set of constraint streams (§4 of the paper):
//
//   - QUEUE  — the queue strategy's thread interleaving: a map from thread
//     id to the first tick at which the thread is scheduled, plus an ordered
//     list of ticks consumed by threads as they leave critical sections,
//     run-length encoded (§4.2). The random strategy records nothing here;
//     its entire interleaving is the two PRNG seeds in the header.
//   - SIGNAL — asynchronous signals, each pinned to the tick of the
//     receiving thread's most recent Tick() (§4.3).
//   - SYSCALL — return value, errno and output buffers of each recorded
//     system call, RLE-compressed (§4.4).
//   - ASYNC  — asynchronous events (reschedules, signal wakeups, timer
//     wakeups) floated to the preceding Tick() (§4.5).
//
// A replay is "synchronised" while every constraint can be enforced; a
// constraint that cannot be enforced is a hard desynchronisation and aborts
// the replay with a *DesyncError.
package demo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"

	"repro/internal/atomicfile"
	"repro/internal/rle"
)

// Strategy identifies the scheduling strategy a demo was recorded under.
// Replay must use the same strategy.
type Strategy uint8

// Scheduling strategies.
const (
	StrategyRandom Strategy = iota
	StrategyQueue
	StrategyPCT
	StrategyDelay
)

func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyQueue:
		return "queue"
	case StrategyPCT:
		return "pct"
	case StrategyDelay:
		return "delay"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy resolves a strategy's command-line name: rnd, queue, pct
// or delay.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "rnd":
		return StrategyRandom, nil
	case "queue":
		return StrategyQueue, nil
	case "pct":
		return StrategyPCT, nil
	case "delay":
		return StrategyDelay, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want rnd, queue, pct or delay)", name)
}

// AsyncKind identifies an asynchronous event type (§4.5).
type AsyncKind uint8

// Asynchronous event kinds.
const (
	AsyncReschedule AsyncKind = iota
	AsyncSignalWakeup
	AsyncTimerWakeup
)

func (k AsyncKind) String() string {
	switch k {
	case AsyncReschedule:
		return "reschedule"
	case AsyncSignalWakeup:
		return "signal_wakeup"
	case AsyncTimerWakeup:
		return "timer_wakeup"
	default:
		return fmt.Sprintf("async(%d)", uint8(k))
	}
}

// SignalEvent records that thread TID received signal Sig having last
// completed a Tick() at logical tick Tick. The paper's SIGNAL file stores
// lines "tid tick sig".
type SignalEvent struct {
	TID  int32
	Tick uint64
	Sig  int32
}

// AsyncEvent records an asynchronous event floated to logical tick Tick.
// TID is the affected thread (the rescheduled-away-from or woken thread).
type AsyncEvent struct {
	Kind AsyncKind
	Tick uint64
	TID  int32
}

// SyscallRecord captures one recorded system call: the issuing thread, the
// call kind (an env.Sys* code), the return value, errno, and every output
// buffer the call filled.
type SyscallRecord struct {
	TID   int32
	Kind  uint16
	Ret   int64
	Errno int32
	Bufs  [][]byte
}

// Queue holds the queue strategy's interleaving record: FirstTick maps each
// thread id to the first tick at which it is scheduled, and Ticks is the
// ordered list of "next tick" values consumed by threads leaving critical
// sections (§4.2).
type Queue struct {
	FirstTick map[int32]uint64
	Ticks     []uint64
}

// Demo is a complete recorded execution.
type Demo struct {
	Strategy Strategy
	Seed1    uint64
	Seed2    uint64
	// FinalTick is the tick counter at the end of recording, used to
	// detect a replay that terminates early (soft desync indicator).
	FinalTick uint64
	Queue     Queue
	Signals   []SignalEvent
	Asyncs    []AsyncEvent
	Syscalls  []SyscallRecord
	// OutputHash is an optional hash of observable program output,
	// used to flag soft desynchronisation (§4: a replay may satisfy all
	// constraints yet produce output in a different order).
	OutputHash uint64
	// Truncated marks a demo recovered from a crashed streaming recording
	// (see Recover): its streams are a valid prefix of the execution, not
	// the whole run. Replay of a truncated demo stops cleanly at FinalTick
	// instead of treating the program running past the recording's end as
	// a desynchronisation.
	Truncated bool
}

// DesyncError reports a hard desynchronisation: a demo constraint that the
// replay could not enforce. Stream names the constraint stream; TID is the
// thread at which enforcement failed; Offset is the cursor position inside
// the stream (tick index for QUEUE, record index for SYSCALL/SIGNAL/ASYNC);
// Expected/Observed, when set, are the recorded expectation and what the
// replay actually saw — the diff desync forensics renders.
type DesyncError struct {
	Stream   string
	Tick     uint64
	TID      int32
	Offset   uint64
	Reason   string
	Expected string
	Observed string
}

func (e *DesyncError) Error() string {
	s := fmt.Sprintf("replay hard desynchronised at tick %d (%s stream, thread %d, cursor offset %d): %s",
		e.Tick, e.Stream, e.TID, e.Offset, e.Reason)
	if e.Expected != "" || e.Observed != "" {
		s += fmt.Sprintf(" [recorded: %s; observed: %s]", e.Expected, e.Observed)
	}
	return s
}

// ErrCorrupt is returned when a serialised demo cannot be parsed.
var ErrCorrupt = errors.New("demo: corrupt demo file")

const (
	magic   = "TSANREC1"
	version = 1
)

// Stream section tags in the serialised form.
const (
	secQueue   = 1
	secSignal  = 2
	secSyscall = 3
	secAsync   = 4
	secMeta    = 5
	secEnd     = 0xFF
)

// secMeta flag bits.
const metaTruncated = 1

// Encode serialises the demo to its binary on-disk form.
func (d *Demo) Encode() []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, magic...)
	buf = append(buf, version, byte(d.Strategy))
	buf = binary.LittleEndian.AppendUint64(buf, d.Seed1)
	buf = binary.LittleEndian.AppendUint64(buf, d.Seed2)
	buf = binary.AppendUvarint(buf, d.FinalTick)
	buf = binary.LittleEndian.AppendUint64(buf, d.OutputHash)

	// QUEUE section.
	buf = append(buf, secQueue)
	tids := make([]int32, 0, len(d.Queue.FirstTick))
	for tid := range d.Queue.FirstTick {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	buf = binary.AppendUvarint(buf, uint64(len(tids)))
	for _, tid := range tids {
		buf = binary.AppendUvarint(buf, uint64(uint32(tid)))
		buf = binary.AppendUvarint(buf, d.Queue.FirstTick[tid])
	}
	buf = rle.AppendUint64s(buf, d.Queue.Ticks)

	// SIGNAL section.
	buf = append(buf, secSignal)
	buf = binary.AppendUvarint(buf, uint64(len(d.Signals)))
	for _, s := range d.Signals {
		buf = binary.AppendUvarint(buf, uint64(uint32(s.TID)))
		buf = binary.AppendUvarint(buf, s.Tick)
		buf = binary.AppendUvarint(buf, uint64(uint32(s.Sig)))
	}

	// SYSCALL section.
	buf = append(buf, secSyscall)
	buf = binary.AppendUvarint(buf, uint64(len(d.Syscalls)))
	for _, sc := range d.Syscalls {
		buf = binary.AppendUvarint(buf, uint64(uint32(sc.TID)))
		buf = binary.AppendUvarint(buf, uint64(sc.Kind))
		buf = binary.AppendUvarint(buf, zigzag(sc.Ret))
		buf = binary.AppendUvarint(buf, uint64(uint32(sc.Errno)))
		buf = binary.AppendUvarint(buf, uint64(len(sc.Bufs)))
		for _, b := range sc.Bufs {
			buf = rle.AppendBytes(buf, b)
		}
	}

	// ASYNC section.
	buf = append(buf, secAsync)
	buf = binary.AppendUvarint(buf, uint64(len(d.Asyncs)))
	for _, a := range d.Asyncs {
		buf = append(buf, byte(a.Kind))
		buf = binary.AppendUvarint(buf, a.Tick)
		buf = binary.AppendUvarint(buf, uint64(uint32(a.TID)))
	}

	// META section, only emitted when a flag is set: demos without flags
	// keep their historical byte-identical encoding.
	if d.Truncated {
		buf = append(buf, secMeta)
		buf = binary.AppendUvarint(buf, metaTruncated)
	}

	buf = append(buf, secEnd)
	return buf
}

// Decode parses a demo from its binary form.
func Decode(data []byte) (*Demo, error) {
	if len(data) < len(magic)+2 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := len(magic)
	if data[off] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[off])
	}
	d := &Demo{Strategy: Strategy(data[off+1])}
	off += 2
	if len(data) < off+16 {
		return nil, fmt.Errorf("%w: truncated seeds", ErrCorrupt)
	}
	d.Seed1 = binary.LittleEndian.Uint64(data[off:])
	d.Seed2 = binary.LittleEndian.Uint64(data[off+8:])
	off += 16
	ft, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: final tick", ErrCorrupt)
	}
	d.FinalTick = ft
	off += n
	if len(data) < off+8 {
		return nil, fmt.Errorf("%w: truncated output hash", ErrCorrupt)
	}
	d.OutputHash = binary.LittleEndian.Uint64(data[off:])
	off += 8

	uv := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: %s", ErrCorrupt, what)
		}
		off += n
		return v, nil
	}

	for off < len(data) {
		sec := data[off]
		off++
		switch sec {
		case secQueue:
			nEntries, err := uv("queue map size")
			if err != nil {
				return nil, err
			}
			d.Queue.FirstTick = make(map[int32]uint64, nEntries)
			for i := uint64(0); i < nEntries; i++ {
				tid, err := uv("queue map tid")
				if err != nil {
					return nil, err
				}
				first, err := uv("queue map tick")
				if err != nil {
					return nil, err
				}
				d.Queue.FirstTick[int32(uint32(tid))] = first
			}
			ticks, n, err := rle.DecodeUint64s(data[off:])
			if err != nil {
				return nil, fmt.Errorf("demo: queue ticks: %w", err)
			}
			d.Queue.Ticks = ticks
			off += n
		case secSignal:
			count, err := uv("signal count")
			if err != nil {
				return nil, err
			}
			d.Signals = make([]SignalEvent, 0, count)
			for i := uint64(0); i < count; i++ {
				tid, err := uv("signal tid")
				if err != nil {
					return nil, err
				}
				tick, err := uv("signal tick")
				if err != nil {
					return nil, err
				}
				sig, err := uv("signal value")
				if err != nil {
					return nil, err
				}
				d.Signals = append(d.Signals, SignalEvent{
					TID: int32(uint32(tid)), Tick: tick, Sig: int32(uint32(sig)),
				})
			}
		case secSyscall:
			count, err := uv("syscall count")
			if err != nil {
				return nil, err
			}
			d.Syscalls = make([]SyscallRecord, 0, count)
			for i := uint64(0); i < count; i++ {
				tid, err := uv("syscall tid")
				if err != nil {
					return nil, err
				}
				kind, err := uv("syscall kind")
				if err != nil {
					return nil, err
				}
				ret, err := uv("syscall ret")
				if err != nil {
					return nil, err
				}
				errno, err := uv("syscall errno")
				if err != nil {
					return nil, err
				}
				nbufs, err := uv("syscall buf count")
				if err != nil {
					return nil, err
				}
				sc := SyscallRecord{
					TID: int32(uint32(tid)), Kind: uint16(kind),
					Ret: unzigzag(ret), Errno: int32(uint32(errno)),
				}
				for b := uint64(0); b < nbufs; b++ {
					buf, n, err := rle.DecodeBytes(data[off:])
					if err != nil {
						return nil, fmt.Errorf("demo: syscall buf: %w", err)
					}
					sc.Bufs = append(sc.Bufs, buf)
					off += n
				}
				d.Syscalls = append(d.Syscalls, sc)
			}
		case secAsync:
			count, err := uv("async count")
			if err != nil {
				return nil, err
			}
			d.Asyncs = make([]AsyncEvent, 0, count)
			for i := uint64(0); i < count; i++ {
				if off >= len(data) {
					return nil, fmt.Errorf("%w: async kind", ErrCorrupt)
				}
				kind := AsyncKind(data[off])
				off++
				tick, err := uv("async tick")
				if err != nil {
					return nil, err
				}
				tid, err := uv("async tid")
				if err != nil {
					return nil, err
				}
				d.Asyncs = append(d.Asyncs, AsyncEvent{Kind: kind, Tick: tick, TID: int32(uint32(tid))})
			}
		case secMeta:
			flags, err := uv("meta flags")
			if err != nil {
				return nil, err
			}
			d.Truncated = flags&metaTruncated != 0
		case secEnd:
			return d, nil
		default:
			return nil, fmt.Errorf("%w: unknown section %d", ErrCorrupt, sec)
		}
	}
	return nil, fmt.Errorf("%w: missing end marker", ErrCorrupt)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Size returns the encoded size in bytes, the metric compared against rr's
// trace sizes in §5.2.
func (d *Demo) Size() int { return len(d.Encode()) }

// SectionSizes returns the encoded size of each stream, used by the httpd
// and game experiments to attribute demo growth ("of which 6.5MB was for
// syscalls", §5.4).
func (d *Demo) SectionSizes() map[string]int {
	empty := &Demo{Strategy: d.Strategy}
	base := len(empty.Encode())

	onlyQueue := &Demo{Strategy: d.Strategy, Queue: d.Queue}
	onlySig := &Demo{Strategy: d.Strategy, Signals: d.Signals}
	onlySys := &Demo{Strategy: d.Strategy, Syscalls: d.Syscalls}
	onlyAsync := &Demo{Strategy: d.Strategy, Asyncs: d.Asyncs}
	return map[string]int{
		"header":  base,
		"queue":   len(onlyQueue.Encode()) - base,
		"signal":  len(onlySig.Encode()) - base,
		"syscall": len(onlySys.Encode()) - base,
		"async":   len(onlyAsync.Encode()) - base,
	}
}

// WriteFile serialises the demo to path. The write is atomic (temp file +
// fsync + rename): a crash mid-write leaves the previous file intact
// instead of a torn demo that ReadFile rejects.
func (d *Demo) WriteFile(path string) error {
	return atomicfile.WriteFile(path, d.Encode(), 0o644)
}

// ReadFile loads a demo from path, accepting both the v1 single-blob form
// and the v2 streamed container (which must be complete; use Recover for
// files a crash tore).
func ReadFile(path string) (*Demo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) >= len(magic2) && string(data[:len(magic2)]) == magic2 {
		return DecodeStream(data)
	}
	return Decode(data)
}

// Clone returns a deep copy of the demo: mutating the copy's streams (as
// the minimizer does when it truncates candidates) leaves the original
// untouched. Syscall output buffers are copied too, since replay hands
// them to the application.
func (d *Demo) Clone() *Demo {
	c := *d
	if d.Queue.FirstTick != nil {
		c.Queue.FirstTick = make(map[int32]uint64, len(d.Queue.FirstTick))
		for tid, t := range d.Queue.FirstTick {
			c.Queue.FirstTick[tid] = t
		}
	}
	c.Queue.Ticks = append([]uint64(nil), d.Queue.Ticks...)
	c.Signals = append([]SignalEvent(nil), d.Signals...)
	c.Asyncs = append([]AsyncEvent(nil), d.Asyncs...)
	c.Syscalls = append([]SyscallRecord(nil), d.Syscalls...)
	for i := range c.Syscalls {
		bufs := c.Syscalls[i].Bufs
		c.Syscalls[i].Bufs = make([][]byte, len(bufs))
		for j, b := range bufs {
			c.Syscalls[i].Bufs[j] = append([]byte(nil), b...)
		}
	}
	return &c
}
