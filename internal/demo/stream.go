// Streaming demo writer: the v2 container (§4's constraint streams,
// re-framed for deployability).
//
// A v1 demo lives entirely in memory until one final WriteFile — so the
// execution you most want to replay, the one that crashes the process, is
// exactly the one whose demo is lost. The v2 container is append-only: a
// fixed header (magic, version, strategy, seeds) followed by
// self-delimiting chunks, each `type | uvarint length | payload | crc32`.
// Chunk types:
//
//   - queue  — a contiguous segment of the QUEUE delta stream (start slot
//     plus RLE deltas), new first-tick entries, and backfill patches for
//     already-flushed slots whose "next tick" only became known later. A
//     reader that never sees a patch keeps the slot's 0, which correctly
//     means "never scheduled again within that shorter prefix".
//   - events — the SIGNAL/ASYNC/SYSCALL records accumulated since the
//     previous flush, in the same wire shapes as the v1 sections.
//   - footer — a candidate end-of-recording marker: FinalTick, output
//     hash, and a "final" flag set only by Close. Every flush batch ends
//     with one, so any prefix of the file that ends at an intact footer
//     is a complete, replayable recording.
//
// Consistency: the recorder latches (footer tick, output hash, per-stream
// counts) under its mutex at every completed tick — NoteSchedule for the
// queue strategy, NoteTick elsewhere (a memory sink, cut only at Close,
// skips the NoteTick latch). Everything the program does inside
// critical sections (syscall records, signal consumption, output emits)
// is recorded before that tick's latch, and everything after a latch at
// tick T only affects ticks > T, so a flush cut at a latch is an exact
// consistent prefix of the execution.
//
// The hot path (NoteSchedule/Add*) only appends to in-memory windows.
// Every Recorder writes this container; only its sink differs. A file
// sink has a background goroutine drain the windows into encoded chunks
// on a timer, double-buffering through reused scratch slices so the
// steady state allocates nothing. A memory sink has no flusher: Close
// encodes the whole recording as one batch into a byte buffer. Either
// way Close returns the strict decode of what was written, so in-memory
// and on-disk recordings yield the same Demo. Recovery of torn files is
// in recover.go.
//
//tsanrec:external host-side recording infrastructure: the flusher drains spools on a wall-clock timer outside the controlled scheduler
package demo

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"time"

	"repro/internal/rle"
)

// v2 container constants.
const (
	magic2   = "TSANREC2"
	version2 = 2

	chunkQueue  = 1
	chunkEvents = 2
	chunkFooter = 3

	// footerFinal marks the footer Close writes; its absence from the
	// last intact footer tells Recover the file is a truncated prefix.
	footerFinal = 1

	v2HeaderLen = len(magic2) + 2 + 16 // magic, version, strategy, two seeds
)

// defaultFlushInterval is the file sink's background flush period when
// the caller passes 0. Small enough that a killed process loses at most a
// few tens of milliseconds of execution.
const defaultFlushInterval = 25 * time.Millisecond

// firstEntry is a spooled QUEUE first-tick record.
type firstEntry struct {
	tid  int32
	tick uint64
}

// patchEntry is a spooled backfill write to an already-flushed QUEUE slot.
type patchEntry struct {
	slot  uint64 // absolute 0-based delta slot (tick-1)
	delta uint64
}

// appendHeader appends the v2 container header.
func appendHeader(dst []byte, s Strategy, seed1, seed2 uint64) []byte {
	dst = append(dst, magic2...)
	dst = append(dst, version2, byte(s))
	dst = binary.LittleEndian.AppendUint64(dst, seed1)
	return binary.LittleEndian.AppendUint64(dst, seed2)
}

// NewFileRecorder returns a Recorder that spools every stream to an
// append-only v2 container at path as the run executes. The file is
// created (truncating any previous content) and a background flusher is
// started, draining the spool every flushInterval (0 = 25ms); the caller
// must Close the recorder to write the final footer. The demo of a
// crashed run is recovered with Recover.
func NewFileRecorder(path string, s Strategy, seed1, seed2 uint64, flushInterval time.Duration) (*Recorder, error) {
	if flushInterval <= 0 {
		flushInterval = defaultFlushInterval
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(appendHeader(make([]byte, 0, v2HeaderLen), s, seed1, seed2)); err != nil {
		f.Close()
		return nil, err
	}
	r := &Recorder{
		strategy: s,
		seed1:    seed1,
		seed2:    seed2,
		file:     f,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.flushLoop(flushInterval)
	return r, nil
}

// flushLoop is the background flusher: drain the spool every interval
// until Close stops it. A write error is sticky — the loop exits and
// Close surfaces the error.
func (r *Recorder) flushLoop(interval time.Duration) {
	defer close(r.done)
	tk := time.NewTicker(interval)
	defer tk.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-tk.C:
		}
		if err := r.flushOnce(false, 0); err != nil {
			r.mu.Lock()
			if r.werr == nil {
				r.werr = err
			}
			r.mu.Unlock()
			return
		}
	}
}

// Flush synchronously drains everything recorded up to the latest
// completed tick into the sink, ending with a footer candidate. Exposed
// for tests and for callers that want a durable cut at a known point.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	werr := r.werr
	r.mu.Unlock()
	if werr != nil {
		return werr
	}
	return r.flushOnce(false, 0)
}

// Close stops the background flusher, writes the final flush batch (its
// footer carries finalTick and the final flag) and finishes the sink — a
// file is synced and closed. It returns the strict decode of the whole
// container. The recorder must not be used after Close; calling Close
// again returns the same results.
func (r *Recorder) Close(finalTick uint64) (*Demo, error) {
	r.closeOnce.Do(func() {
		if r.file != nil {
			close(r.quit)
			<-r.done
		}
		err := r.flushOnce(true, finalTick)
		r.mu.Lock()
		if err == nil {
			err = r.werr
		}
		r.mu.Unlock()
		data, eerr := r.endSink()
		if err == nil {
			err = eerr
		}
		if err == nil {
			r.closeDemo, err = DecodeStream(data)
		}
		r.closeErr = err
	})
	return r.closeDemo, r.closeErr
}

// write appends p to the sink.
func (r *Recorder) write(p []byte) error {
	if r.file == nil {
		r.mem = append(r.mem, p...)
		return nil
	}
	_, err := r.file.Write(p)
	return err
}

// endSink finishes the sink and returns every byte written to it. A file
// is synced, closed and read back, so the Demo that Close returns is what
// a later ReadFile of the file sees.
func (r *Recorder) endSink() ([]byte, error) {
	if r.file == nil {
		return r.mem, nil
	}
	if err := errors.Join(r.file.Sync(), r.file.Close()); err != nil {
		return nil, err
	}
	return os.ReadFile(r.file.Name())
}

// flushOnce cuts the spool at the current latch and appends one chunk
// batch: [queue][events][footer]. The cut itself runs under the
// recorder's mutex and only trades the windows for the reused scratch
// buffers (see cut); encoding and the sink write happen outside it.
func (r *Recorder) flushOnce(final bool, finalTick uint64) error {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()

	r.mu.Lock()
	ft, fh := r.footTick, r.footHash
	sigN, asyncN, sysN := r.sigN, r.asyncN, r.sysN
	if final {
		// Close flushes everything, not just the latched prefix: no more
		// events can arrive, so "now" is a consistent cut.
		if finalTick > ft {
			ft = finalTick
		}
		fh = r.outputHash
		sigN = r.sigBase + len(r.signals)
		asyncN = r.asyncBase + len(r.asyncs)
		sysN = r.sysBase + len(r.syscalls)
	}
	// Queue segment: slots [deltaBase, ft). At a latch the window length
	// is exactly ft-deltaBase (NoteSchedule extends and latches together),
	// but clamp defensively.
	qStart := r.deltaBase
	nd := 0
	if r.strategy == StrategyQueue && ft > r.deltaBase {
		nd = int(ft - r.deltaBase)
		if nd > len(r.queueDelta) {
			nd = len(r.queueDelta)
		}
		r.scratchDeltas, r.queueDelta = cut(r.queueDelta, r.scratchDeltas, nd)
		r.deltaBase += uint64(nd)
	}
	r.scratchFirsts, r.firsts = cut(r.firsts, r.scratchFirsts, len(r.firsts))
	r.scratchPatches, r.patches = cut(r.patches, r.scratchPatches, len(r.patches))
	r.scratchSigs, r.signals = cut(r.signals, r.scratchSigs, sigN-r.sigBase)
	r.sigBase = sigN
	r.scratchAsyncs, r.asyncs = cut(r.asyncs, r.scratchAsyncs, asyncN-r.asyncBase)
	r.asyncBase = asyncN
	r.scratchSys, r.syscalls = cut(r.syscalls, r.scratchSys, sysN-r.sysBase)
	r.sysBase = sysN
	r.mu.Unlock()

	haveQueue := nd > 0 || len(r.scratchFirsts) > 0 || len(r.scratchPatches) > 0
	haveEvents := len(r.scratchSigs) > 0 || len(r.scratchAsyncs) > 0 || len(r.scratchSys) > 0
	if !haveQueue && !haveEvents && ft == r.lastFooterTick && !final {
		return nil // nothing new since the previous footer
	}

	r.enc = r.enc[:0]
	if haveQueue {
		r.pay = r.pay[:0]
		r.pay = binary.AppendUvarint(r.pay, qStart)
		r.pay = rle.AppendUint64s(r.pay, r.scratchDeltas)
		r.pay = binary.AppendUvarint(r.pay, uint64(len(r.scratchFirsts)))
		for _, fe := range r.scratchFirsts {
			r.pay = binary.AppendUvarint(r.pay, uint64(uint32(fe.tid)))
			r.pay = binary.AppendUvarint(r.pay, fe.tick)
		}
		r.pay = binary.AppendUvarint(r.pay, uint64(len(r.scratchPatches)))
		for _, pe := range r.scratchPatches {
			r.pay = binary.AppendUvarint(r.pay, pe.slot)
			r.pay = binary.AppendUvarint(r.pay, pe.delta)
		}
		r.enc = appendChunk(r.enc, chunkQueue, r.pay)
	}
	if haveEvents {
		r.pay = r.pay[:0]
		r.pay = binary.AppendUvarint(r.pay, uint64(len(r.scratchSigs)))
		for _, s := range r.scratchSigs {
			r.pay = binary.AppendUvarint(r.pay, uint64(uint32(s.TID)))
			r.pay = binary.AppendUvarint(r.pay, s.Tick)
			r.pay = binary.AppendUvarint(r.pay, uint64(uint32(s.Sig)))
		}
		r.pay = binary.AppendUvarint(r.pay, uint64(len(r.scratchAsyncs)))
		for _, a := range r.scratchAsyncs {
			r.pay = append(r.pay, byte(a.Kind))
			r.pay = binary.AppendUvarint(r.pay, a.Tick)
			r.pay = binary.AppendUvarint(r.pay, uint64(uint32(a.TID)))
		}
		r.pay = binary.AppendUvarint(r.pay, uint64(len(r.scratchSys)))
		for _, sc := range r.scratchSys {
			r.pay = binary.AppendUvarint(r.pay, uint64(uint32(sc.TID)))
			r.pay = binary.AppendUvarint(r.pay, uint64(sc.Kind))
			r.pay = binary.AppendUvarint(r.pay, zigzag(sc.Ret))
			r.pay = binary.AppendUvarint(r.pay, uint64(uint32(sc.Errno)))
			r.pay = binary.AppendUvarint(r.pay, uint64(len(sc.Bufs)))
			for _, b := range sc.Bufs {
				r.pay = rle.AppendBytes(r.pay, b)
			}
		}
		r.enc = appendChunk(r.enc, chunkEvents, r.pay)
	}
	r.pay = r.pay[:0]
	var flags byte
	if final {
		flags |= footerFinal
	}
	r.pay = append(r.pay, flags)
	r.pay = binary.AppendUvarint(r.pay, ft)
	r.pay = binary.LittleEndian.AppendUint64(r.pay, fh)
	r.enc = appendChunk(r.enc, chunkFooter, r.pay)

	if err := r.write(r.enc); err != nil {
		return err
	}
	r.lastFooterTick = ft
	return nil
}

// cut splits a window at n. The first n entries become the batch to
// encode, keeping the window's array; the rest move to the front of the
// previous batch's array, which becomes the window. Swapping the arrays
// makes the usual cut — the whole window, as at every latch and at Close —
// copy nothing. Stale entries past the new window's length are harmless:
// NoteSchedule zeroes the delta window as it extends it, and the event
// windows only append.
func cut[T any](window, spare []T, n int) (batch, rest []T) {
	return window[:n], append(spare[:0], window[n:]...)
}

// appendChunk frames one chunk: type byte, uvarint payload length, the
// payload, and a CRC32 (IEEE) of the payload. The CRC makes a torn tail
// detectable; the length makes every intact chunk self-delimiting.
func appendChunk(dst []byte, typ byte, pay []byte) []byte {
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(pay)))
	dst = append(dst, pay...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(pay))
}
